(** Static detection of probabilistic zero-time cycles.

    The exact finite-horizon engine iterates each tick layer to a
    fixpoint; that terminates exactly when no probability mass can
    cycle without consuming time.  A {e probabilistic zero-time cycle}
    -- a cycle of non-tick steps carrying at least one non-Dirac branch
    -- makes the layer fixpoint irrational/asymptotic, which
    {!Finite_horizon} reports at run time as [No_convergence].

    This module finds the problem {e statically}: it computes the
    strongly connected components of the zero-time step graph (read
    off the arena's precomputed tick mask) and flags any component
    that contains a probabilistic zero-time edge.  Well-formed
    digital-clock encodings (where every scheduling consumes per-slot
    budget) always pass.

    Cycles made purely of Dirac (probability-1) zero-time steps -- e.g.
    busy-wait self-loops -- are harmless for convergence and are not
    flagged.

    The arena must have been compiled with the model's [is_tick]; an
    arena compiled without one has an all-false tick mask, so {e every}
    step is a zero-time edge. *)

type verdict =
  | Ok
  | Probabilistic_zero_time_cycle of int list
      (** state indices of one offending strongly connected component *)

val check : ('s, 'a) Arena.t -> verdict
