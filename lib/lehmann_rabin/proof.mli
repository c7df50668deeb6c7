(** The time-bound proof of Section 6.2 / Appendix A, mechanized.

    Each of the paper's five phase statements is discharged by exact
    model checking over all adversaries of the (structurally encoded)
    [Unit-Time] schema; they are then stitched together with
    Proposition 3.2 and Theorem 3.4, exactly as in the paper, to yield

    {v T -13->_{1/8} C v}

    and the expected-time recurrence of Section 6.2 gives the 63-unit
    expected-progress bound. *)

type instance = {
  params : Automaton.params;
  expl : (State.t, Automaton.action) Mdp.Explore.t;
  arena : (State.t, Automaton.action) Mdp.Arena.t;
      (** [expl] compiled once, with the model's tick mask; every
          engine call below reads this. *)
  sym : Analysis.Symmetry.certificate option;
      (** present iff the fragment is the certified orbit quotient *)
}

(** [build ~n ()] constructs and explores the ring instance
    (granularity [g] and per-slot budget [k] default to 1).  [sym]
    (default [Off]) requests orbit-reduced exploration under the
    declared rotation group ({!Symmetry.ring}): [On] raises
    [Analysis.Symmetry.Not_certified] unless the group certifies,
    [Auto] falls back to unreduced. *)
val build :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  n:int -> unit -> instance

(** One phase statement together with what the checker found. *)
type arrow = {
  label : string;  (** e.g. "A.11" *)
  pre : State.t Core.Pred.t;
  post : State.t Core.Pred.t;
  time : Proba.Rational.t;  (** the paper's [t] *)
  prob : Proba.Rational.t;  (** the paper's [p] *)
  attained : Proba.Rational.t;  (** exact min probability found *)
  pre_states : int;
  claim : State.t Core.Claim.t option;  (** present iff [attained >= prob] *)
}

(** The paper's five arrows, in proof order:
    [P -1->_1 C], [T -2->_1 RT ∪ C], [RT -3->_1 F ∪ G ∪ P],
    [F -2->_{1/2} G ∪ P], [G -5->_{1/4} P]. *)
val arrows : instance -> arrow list

(** [compose inst (arrows inst)] composes the five checked arrows into
    [T -13->_{1/8} C] using the claim DSL (Proposition 3.2 to pad each
    arrow with already-reached states, inclusion certificates verified
    over the reachable states to canonicalize the set names, Theorem
    3.4 to chain).  No arrow is checked again.  Returns [Error] naming
    the first arrow, in proof order, that does not hold.  Raises
    [Invalid_argument] unless given the five arrows in proof order. *)
val compose :
  instance -> arrow list -> (State.t Core.Claim.t, string) result

(** [composed inst] is [compose inst (arrows inst)], for callers that
    only want the claim. *)
val composed : instance -> (State.t Core.Claim.t, string) result

(** Exact minimum of [P(reach C within 13)] over reachable [T]-states:
    the direct model-checking counterpart of {!composed}, used to show
    how conservative the paper's [1/8] is. *)
val direct_bound : instance -> Proba.Rational.t

(** The expected-time derivation of Section 6.2: the recurrence solution
    [E[V] = 60] from [RT] to [P], then [2 + 60 + 1 = 63] from [T] to
    [C]. *)
val expected_bound : unit -> Core.Expected.t

(** Worst-case expected time (in paper units) from a reachable
    [T]-state to [C], measured on the explored MDP by value iteration:
    the quantity the paper bounds by 63. *)
val max_expected_time : instance -> float

(** Qualitative baseline (the Zuck-Pnueli-style result the paper
    refines): does every adversary drive every reachable [T]-state into
    [C] almost surely? *)
val liveness_holds : instance -> bool

(** [worst_adversary inst] extracts the memoryless adversary maximizing
    the expected time from [T] to [C], as a replayable scheduler
    together with its exact value-iteration expectation from the
    all-trying start state (in paper time units).  Simulating the
    scheduler should reproduce that number -- the E8 cross-check. *)
val worst_adversary :
  instance -> float * (State.t, Automaton.action) Sim.Scheduler.t

(** {1 Generalized topologies}

    The paper's concluding remarks ask whether the analysis extends to
    "topologies that are more general than rings"; these entry points
    run the whole pipeline -- the five arrows with the generalized
    goodness set {!Regions.g_of}, the Theorem 3.4 composition, the
    direct bound, the invariant -- on any {!Topology.t}. *)

type topo_instance = {
  topo : Topology.t;
  tg : int;
  tk : int;
  texpl : (State.t, Automaton.action) Mdp.Explore.t;
  tarena : (State.t, Automaton.action) Mdp.Arena.t;
  tsym : Analysis.Symmetry.certificate option;
}

val build_topo :
  ?max_states:int -> ?g:int -> ?k:int -> ?sym:Analysis.Symmetry.mode ->
  topo:Topology.t -> unit -> topo_instance

val arrows_topo : topo_instance -> arrow list
val compose_topo :
  topo_instance -> arrow list -> (State.t Core.Claim.t, string) result
val composed_topo : topo_instance -> (State.t Core.Claim.t, string) result
val direct_bound_topo : topo_instance -> Proba.Rational.t
val max_expected_time_topo : topo_instance -> float

(** Lemma 6.1 generalized; [None] when it holds. *)
val invariant_topo : topo_instance -> State.t option
