(** Exact time-bounded reachability under all adversaries.

    Computes, by backward induction with exact rational arithmetic, the
    minimum (or maximum) over all adversaries of the probability of
    reaching a target set within a given number of time units -- the
    quantity bounded by a statement [U -t->_p U'] (Definition 3.1).

    Time is carried by the arena's precomputed tick mask (see
    {!Arena}): the horizon counts ticks, and non-tick steps take zero
    time.  Within one tick layer the Bellman operator is iterated to
    its fixpoint; this terminates exactly when zero-time cycles cannot
    carry probabilistic mass around a loop, which holds for automata
    whose non-tick steps consume a per-slot budget (the digital-clock
    construction used by the case studies).  If the layer fixpoint
    fails to close after [num_states + 2] sweeps, {!No_convergence} is
    raised rather than returning an unsound answer.

    Quantification is over all non-halting adversaries: the adversary
    must pick some enabled step when one exists.  Halting at will would
    make every minimum trivially zero; the timing schemas of the paper
    (e.g. [Unit-Time]) likewise force time to keep flowing.

    Every entry point accepts [?pool].  With a pool (explicit or the
    session default installed by [--domains]), layer sweeps run as
    double-buffered Jacobi iterations split across the pool's domains;
    the chunk grid depends only on the state count, so the results are
    bit-identical for any number of domains.  Without a pool the legacy
    sequential in-place schedule runs; for the exact numeric types both
    schedules converge to the same fixpoint (see docs/PERFORMANCE.md).

    The engines read the arena's probability planes directly (exact
    plane for rationals, the memoized dyadic plane for the fast path);
    branch order is the exploration order, so values are bit-identical
    to the historical path that converted per call. *)

exception No_convergence of string

(** [min_reach arena ~target ~ticks] gives, per state index, the
    minimum over all adversaries of the probability that a [target]
    state is visited within [ticks] ticks (a state already in [target]
    has value 1).  Raises [Invalid_argument] if [ticks < 0].

    [?plane] (default: {!Plane.get_default}) selects the sweeping
    strategy; the returned rationals are bit-identical either way.
    Under {!Plane.Interval} each layer runs an outward-rounded
    interval fixpoint first and recomputes exactly only the residue
    states whose interval stayed wide (see docs/PERFORMANCE.md).
    Under {!Plane.Exact}: when every transition probability is dyadic
    (the case for all fair-coin protocols) the computation runs on
    {!Proba.Dyadic} arithmetic -- exactly the same results, several
    times faster than general rationals; otherwise it falls back
    transparently to pure rationals. *)
val min_reach :
  ?pool:Parallel.Pool.t ->
  ?plane:Plane.t ->
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array

(** Maximum over all adversaries (best-case scheduling). *)
val max_reach :
  ?pool:Parallel.Pool.t ->
  ?plane:Plane.t ->
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array

(** [min_reach_with_policy] additionally returns an optimal memoryless
    (per-layer) adversary: [policy.(t).(s)] is the index of the step the
    minimizing adversary takes at state [s] with [t] ticks of budget
    remaining ([-1] when the state is in the target, or terminal). *)
val min_reach_with_policy :
  ?pool:Parallel.Pool.t ->
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array * int array array

(** {1 Cross-checking}

    The pure-rational engines (no dyadic fast path), exposed so tests
    and benches can compare the two exact implementations. *)

val min_reach_rational :
  ?pool:Parallel.Pool.t ->
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array

val max_reach_rational :
  ?pool:Parallel.Pool.t ->
  ('s, 'a) Arena.t -> target:bool array -> ticks:int ->
  Proba.Rational.t array
