(** Worst-case expected time to reach a target.

    Computes the [sup] over adversaries of the expected number of
    ticks before the target is first visited, by floating-point value
    iteration over the arena's float plane (this quantity is a
    {e measurement} used to compare against the paper's derived bound
    of 63, not a certified claim, so floats are appropriate; the
    certified path goes through {!Finite_horizon} and
    {!Core.Expected}).

    States from which some adversary avoids the target with positive
    probability have unbounded worst-case expected time; they are
    detected with {!Qualitative.always_reaches} and reported as
    [infinity].

    Tick costs come from the arena's precomputed tick mask; the float
    plane is the same [Rational.to_float] image the historical code
    computed per access, so the fixpoints are bit-identical.

    With [?pool] (or the session default installed by [--domains]) the
    sweeps run as double-buffered Jacobi iterations across the pool's
    domains; results are bit-identical for any number of domains, but
    may differ in low-order bits from the sequential in-place schedule
    used when no pool is set. *)

(** [max_expected_ticks arena ~target ()] returns per-state worst-case
    expected ticks-to-target ([infinity] where some adversary avoids
    the target).  Iterates until the largest update falls below
    [epsilon] (default [1e-12]) or [max_sweeps] (default [1_000_000]) is
    hit, whichever is first; raises [Failure] when the sweep budget runs
    out. *)
val max_expected_ticks :
  ?pool:Parallel.Pool.t ->
  ('s, 'a) Arena.t -> target:bool array ->
  ?epsilon:float -> ?max_sweeps:int -> unit -> float array

(** Like {!max_expected_ticks}, additionally extracting a memoryless
    worst-case adversary: [policy.(s)] is the index of the step the
    maximizing adversary takes at state [s] ([-1] at target, terminal,
    or non-surely-reaching states).  For expected total cost,
    memoryless adversaries attain the extremum, so the extracted policy
    can be replayed by the simulator to cross-validate the value
    iteration (experiment E8). *)
val max_expected_ticks_with_policy :
  ?pool:Parallel.Pool.t ->
  ('s, 'a) Arena.t -> target:bool array ->
  ?epsilon:float -> ?max_sweeps:int -> unit -> float array * int array
