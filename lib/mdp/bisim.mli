(** Strong probabilistic bisimulation minimization (Larsen-Skou style),
    by partition refinement over the compiled arena.

    Two states are bisimilar when they carry the same label, and for
    every step of one there is an equally-labelled step of the other
    inducing the same probability distribution over equivalence
    classes.  Bisimilar states have identical extremal reachability
    probabilities and expected times with respect to any target that is
    a union of initial-partition blocks, so analyses can run on the
    quotient instead.

    On symmetric systems the reduction is substantial: the ring
    instances of the dining philosophers are invariant under rotation,
    and the quotient factors that symmetry out automatically. *)

(** [refine arena ~labels ?action_key ()] computes the coarsest
    bisimulation partition refining the [labels] partition (an
    arbitrary integer labelling of states -- e.g. 1 for target states
    and 0 elsewhere).  [action_key] collapses actions before matching
    steps (default: structural identity), which is how symmetric
    systems are minimized: mapping [flip_0 .. flip_n] all to ["flip"]
    lets rotations of the ring fall into the same class.  Per-block
    weights are compared exactly, on the arena's rational plane.
    Returns the block index of every state; blocks are numbered in
    first-encounter order of the final refinement sweep. *)
val refine :
  ('s, 'a) Arena.t -> labels:int array -> ?action_key:('a -> string) ->
  unit -> int array

val num_blocks : int array -> int

(** [quotient arena partition ?action_key ()] builds the quotient
    automaton over block indices: each block's steps are the
    (deduplicated) class-distributions of any representative.  The
    start state is the block of the first start state. *)
val quotient :
  ('s, 'a) Arena.t -> int array -> ?action_key:('a -> string) -> unit ->
  (int, string) Core.Pa.t
