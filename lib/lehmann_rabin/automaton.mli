(** The Lehmann-Rabin protocol as a probabilistic timed automaton
    (the automaton [M] of Section 6.1), with the [Unit-Time] adversary
    schema encoded structurally by digital clocks.

    Timing encoding (see DESIGN.md, "Substitutions"):
    - a [Tick] action advances time by one slot ([1/g] of a paper time
      unit) and is enabled only when no ready process has exhausted its
      deadline countdown, so {e every} adversary of this automaton
      schedules each ready process within time 1 -- the defining
      constraint of [Unit-Time];
    - each process may be scheduled at most [k] times per slot (its
      budget, refreshed by [Tick]), which makes the zero-time layers of
      the MDP acyclic and hence exactly checkable.  The continuous-time
      adversary of the paper is the [k -> infinity, g -> infinity]
      limit; the experiments sweep both knobs.

    The user-controlled actions [try_i] and [exit_i] carry no deadline
    and are fired at the adversary's pleasure, as in the paper. *)

type params = { n : int; g : int; k : int }

type action =
  | Tick
  | Try of int  (** user grants [try_i]: R -> F *)
  | Exit of int  (** user grants [exit_i]: C -> E_F *)
  | Flip of int  (** the coin flip: F -> W_left or W_right, each 1/2 *)
  | Wait of int  (** test-and-take the first resource (busy-wait) *)
  | Second of int  (** test-and-take the second resource: S -> P or D *)
  | Drop of int  (** put the first resource back: D -> F *)
  | Crit of int  (** enter the critical region: P -> C *)
  | Drop_first of int * State.side
      (** exit step 7, nondeterministic keep-side choice: E_F -> E_S *)
  | Drop_second of int  (** exit step 8: E_S -> E_R *)
  | Rem of int  (** exit step 9: E_R -> R *)

val pp_action : Format.formatter -> action -> unit

val is_tick : action -> bool

(** Duration in slots (1 for [Tick], 0 otherwise). *)
val duration : action -> int

(** The external actions of [M] are [try], [crit], [exit], [rem]
    (Section 6.1); everything else is internal. *)
val is_external : action -> bool

(** [make params] builds the ring automaton.  Raises [Invalid_argument]
    for [n < 2], [g < 1] or [k < 1]. *)
val make : params -> (State.t, action) Core.Pa.t

(** [make_general ~topo ~g ~k] builds the protocol over an arbitrary
    two-resource conflict topology (the paper's "more general
    topologies" extension); [make params] is
    [make_general ~topo:(Topology.ring params.n) ...]. *)
val make_general :
  topo:Topology.t -> g:int -> k:int -> (State.t, action) Core.Pa.t

(** [enabled params s] is exposed for white-box tests. *)
val enabled : params -> State.t -> (State.t, action) Core.Pa.step list
