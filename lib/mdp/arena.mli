(** Compiled form of an explored fragment: its CSR rows plus the
    per-step tick mask and the float probability plane.

    {!Explore.t} already stores the transitions as dense parallel
    arrays (see there); the arena's [step_off], [out_off], [tgt],
    [prob_q] and [actions] fields are those very arrays, shared, not
    copied.  Compiling adds only:

    - [prob_f.(o)], branch [o]'s probability as an IEEE double
      ([Rational.to_float] of the exact plane, precomputed so float
      sweeps never convert in the inner loop);
    - [tick.(k)], the precomputed tick mask -- this replaces the
      [~is_tick] closure formerly threaded through every engine
      signature.

    Budgeted partial fragments compile unchanged: frontier states
    (indices [>= num_expanded]) have empty step rows, which downstream
    sweeps treat as stuck -- the same under-approximation semantics as
    {!Explore.partial}. *)

type ('s, 'a) t = private {
  expl : ('s, 'a) Explore.t;  (** the fragment this was compiled from *)
  n : int;  (** number of states *)
  expanded : int;  (** states whose steps were computed *)
  step_off : int array;  (** state -> step range; length [n + 1] *)
  out_off : int array;  (** step -> branch range; length [num_choices + 1] *)
  tgt : int array;  (** branch -> target state; length [num_branches] *)
  prob_q : Proba.Rational.t array;  (** exact probability plane *)
  prob_f : float array;  (** float probability plane (same order) *)
  tick : bool array;  (** per-step tick mask *)
  actions : 'a array;  (** per-step original action *)
  dyadic : Proba.Dyadic.t array option Atomic.t;
      (** memoized dyadic plane; use {!dyadic_plane} *)
  interval : (float array * float array) option Atomic.t;
      (** memoized interval plane; use {!interval_plane} *)
  fp : string option Atomic.t;
      (** memoized structural fingerprint; use {!fingerprint} *)
}

(** [compile ?is_tick expl] adds the tick mask and the float plane to
    a fragment's rows.  Without [is_tick] the tick mask is all-[false]
    (every step is zero-time): that is how an untimed model compiles,
    and {!Zeno.check} then treats every step as a zero-time edge. *)
val compile : ?is_tick:('a -> bool) -> ('s, 'a) Explore.t -> ('s, 'a) t

(** [of_pa ?max_states ?is_tick pa] = explore then compile. *)
val of_pa :
  ?max_states:int -> ?is_tick:('a -> bool) -> ('s, 'a) Core.Pa.t ->
  ('s, 'a) t

(** [assemble ~tick expl] is {!compile} with a stored tick mask (an
    arena snapshot's) in place of a classifier; {!compiles} is {e not}
    incremented.  The float plane is recomputed exactly as {!compile}
    does, so loaded arenas are bit-identical to freshly compiled ones;
    derived-plane memos start empty and fill on first use.  Raises
    [Invalid_argument] when [tick] does not have one entry per step. *)
val assemble : tick:bool array -> ('s, 'a) Explore.t -> ('s, 'a) t

(** The dyadic probability plane, converted from [prob_q] on first use
    and memoized.  Raises {!Proba.Dyadic.Not_dyadic} (caching nothing)
    when some probability is not a dyadic rational.  Domain-safe: the
    memo is a write-once [Atomic]; racing domains both compute the
    identical plane and one copy wins. *)
val dyadic_plane : ('s, 'a) t -> Proba.Dyadic.t array

(** The outward-rounded interval plane as parallel [lo]/[hi] endpoint
    arrays in branch order: [lo.(o) <= prob_q.(o) <= hi.(o)] with
    correctly-rounded directed endpoints (equal whenever the
    probability is a finite double, which covers all dyadic models).
    Computed from [prob_q] on first use and memoized like
    {!dyadic_plane} (domain-safe, write-once).  Its only consumer is
    the guided sweep of {!Finite_horizon} under {!Plane.Interval}. *)
val interval_plane : ('s, 'a) t -> float array * float array

(** A deterministic structural digest of the compiled fragment (32 hex
    characters), stamped into certificate leaves ([lib/cert]) so a
    re-checker can tell {e which} explored system a model-checking
    result talks about.  Digests the CSR skeleton, the exact
    probability plane (canonical wire bytes), the tick mask and a
    structural hash of every interned state and action in index order;
    consequently it is identical across processes, [--domains] pool
    sizes and [--plane] choices, and distinct whenever the model,
    parameters, exploration budget or symmetry quotient differ.
    Memoized (write-once [Atomic], domain-safe like the planes). *)
val fingerprint : ('s, 'a) t -> string

(** {1 Mirrored fragment accessors} *)

val explored : ('s, 'a) t -> ('s, 'a) Explore.t
val automaton : ('s, 'a) t -> ('s, 'a) Core.Pa.t
val num_states : ('s, 'a) t -> int
val num_expanded : ('s, 'a) t -> int
val is_expanded : ('s, 'a) t -> int -> bool
val is_complete : ('s, 'a) t -> bool
val num_choices : ('s, 'a) t -> int
val num_branches : ('s, 'a) t -> int
val state : ('s, 'a) t -> int -> 's
val index : ('s, 'a) t -> 's -> int option
val start_indices : ('s, 'a) t -> int list
val states_where : ('s, 'a) t -> ('s -> bool) -> int list
val indicator : ('s, 'a) t -> 's Core.Pred.t -> bool array

(** {1 Step helpers} *)

(** Number of steps enabled at a state (zero on the frontier). *)
val num_steps_of : ('s, 'a) t -> int -> int

val action : ('s, 'a) t -> step:int -> 'a

(** Process-wide count of {!compile} calls (including {!of_pa}); read
    by [Models.stats]. *)
val compiles : unit -> int
