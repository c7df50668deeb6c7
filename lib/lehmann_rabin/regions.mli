(** The state sets of the proof (Section 6.2).

    All predicates are over reachable states of the automaton; the
    checker evaluates them only on explored (hence reachable) states, as
    the paper's definitions require. *)

(** [X_i in T] in the paper's sense: pc in [{F, W, S, D, P}]. *)
val trying : State.region -> bool

(** [T]: some process is in its trying region. *)
val t : State.t Core.Pred.t

(** [C]: some process is in its critical region. *)
val c : State.t Core.Pred.t

(** [RT]: some process is trying, and every process is in
    [{E_R, R} ∪ T] -- nobody is critical or holds resources while
    exiting. *)
val rt : State.t Core.Pred.t

(** [F]: a state of [RT] where some process is ready to flip. *)
val f : State.t Core.Pred.t

(** [P]: some process is in its pre-critical region. *)
val p : State.t Core.Pred.t

(** [G]: a state of [RT] with a {e good} process -- a committed process
    (pc in [{W, S}]) whose second resource is not potentially controlled
    by its neighbor on that side. *)
val g : State.t Core.Pred.t

(** [good_processes s] lists the indices witnessing membership in [G]. *)
val good_processes : State.t -> int list

(** [g_of topo] is the goodness set generalized to an arbitrary
    topology: a committed process is good when {e no} other process
    sharing its second resource potentially controls (or holds) it.  On
    [Topology.ring n] this coincides with {!g}. *)
val g_of : Topology.t -> State.t Core.Pred.t

(** The ladder sets used to stitch the five arrows together with
    Proposition 3.2 (each is the union of the previous arrow's target
    with everything already achieved): *)

val rt_or_c : State.t Core.Pred.t
val fgp_or_c : State.t Core.Pred.t
val gp_or_c : State.t Core.Pred.t
val p_or_c : State.t Core.Pred.t

(** [F ∪ G ∪ P] and [G ∪ P], the raw arrow targets of A.15 and A.14. *)
val fgp : State.t Core.Pred.t

val gp : State.t Core.Pred.t
