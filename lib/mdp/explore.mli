(** Explicit-state exploration of a probabilistic automaton.

    Breadth-first enumeration of the reachable states, producing a
    compact indexed representation of the underlying MDP: the
    nondeterministic choices at each state become the MDP's actions and
    the probabilistic branches its transition distributions.  The
    transitions are stored once, as compressed-sparse-row arrays that
    {!Arena.compile} shares rather than copies:

    - [step_off.(i) .. step_off.(i+1) - 1] are the steps of state [i]
      (length [num_states + 1]);
    - [out_off.(k) .. out_off.(k+1) - 1] are the branches of step [k]
      (length [num_choices + 1]);
    - [tgt.(o)] and [prob_q.(o)] are branch [o]'s target state and
      exact weight;
    - [actions.(k)] is step [k]'s original action.

    A state's steps are in [Core.Pa.enabled] order and a step's
    branches in support order, with support states that intern to one
    index coalesced into one branch.  The arrays are shared: callers
    must not mutate them. *)

exception Too_many_states of int

(** Raised by {!of_parts} when the stored parts are not what exploring
    the given automaton produces; the message names the first
    difference. *)
exception Stale of string

type ('s, 'a) t

(** [run ?max_states m] explores [m] from its start states.
    Raises {!Too_many_states} when the bound (default [5_000_000]) is
    exceeded -- prefer {!run_budgeted}, which keeps the partial work.

    [canon] (default identity) is applied to every state before
    interning, so the exploration builds the quotient of [m] under the
    kernel of [canon]: pass an orbit canonicalizer (certified by
    [Analysis.Symmetry]) and the result is the orbit-reduced MDP,
    indistinguishable to downstream consumers from an ordinary
    fragment.  Soundness (that the quotient's verdicts match the full
    automaton's) is the {e caller's} obligation; uncertified canon
    functions yield garbage quietly.  {!index} canonicalizes its
    argument, so looking up any orbit member finds the
    representative. *)
val run : ?max_states:int -> ?canon:('s -> 's) -> ('s, 'a) Core.Pa.t -> ('s, 'a) t

(** A possibly-incomplete exploration.  When the budget ran out,
    [fragment] still holds every interned state; the [frontier] states
    (the index suffix, see {!is_expanded}) were discovered but not
    expanded and have empty rows.  Downstream backward inductions treat
    them as stuck, which {e under}-approximates reachability -- so a
    min-reach value computed on the fragment is a sound lower bound for
    the full automaton, though claims must not be certified from it
    (pre-states beyond the frontier were never examined). *)
type ('s, 'a) partial = {
  fragment : ('s, 'a) t;
  complete : bool;
  frontier : int;  (** number of interned-but-unexpanded states *)
  stopped : string option;  (** which budget dimension ran out *)
}

(** [run_budgeted ?budget ?clock m] explores within [budget], never
    raising on exhaustion.  Pass [clock] to share one allowance across
    phases (e.g. exploration, then a Monte Carlo fallback); otherwise a
    fresh clock is started.  The state bound is checked before each
    expansion, so the interned count can overshoot it by the branching
    of the last expanded state. *)
val run_budgeted :
  ?budget:Core.Budget.t -> ?clock:Core.Budget.clock -> ?canon:('s -> 's) ->
  ('s, 'a) Core.Pa.t -> ('s, 'a) partial

(** [of_parts ~pa ~states ~step_off ~out_off ~tgt ~prob_q ~actions
    ~start_indices ~expanded ()] rebuilds a fragment from
    previously-explored parts (an arena snapshot).  The intern table is
    reconstructed from [states] in index order, then the exploration is
    replayed against the stored rows: every expanded state and the
    start states are re-expanded under [pa] (targets canonicalized by
    [canon]) by the same row expansion {!run} uses, and the first step
    whose action, target or weight differs -- or a stored state that is
    duplicated, unreached or out of discovery order -- raises {!Stale}.
    So the result is exactly the fragment {!run} (or a {!run_budgeted}
    stopped after [expanded] expansions) builds from [pa], yet
    {!explorations} is {e not} incremented.  [canon] must be the
    canonicalizer the original exploration used (omitted when it was
    the identity).  Raises [Invalid_argument] when array lengths are
    inconsistent. *)
val of_parts :
  ?canon:('s -> 's) ->
  pa:('s, 'a) Core.Pa.t ->
  states:'s array ->
  step_off:int array ->
  out_off:int array ->
  tgt:int array ->
  prob_q:Proba.Rational.t array ->
  actions:'a array ->
  start_indices:int list ->
  expanded:int ->
  unit ->
  ('s, 'a) t

(** The automaton that was explored. *)
val automaton : ('s, 'a) t -> ('s, 'a) Core.Pa.t

val num_states : ('s, 'a) t -> int

(** States whose steps were computed; the frontier of an incomplete
    fragment is the index range [num_expanded .. num_states - 1]. *)
val num_expanded : ('s, 'a) t -> int

val is_expanded : ('s, 'a) t -> int -> bool

(** [true] iff every interned state was expanded ({!run} results
    always are). *)
val is_complete : ('s, 'a) t -> bool

(** Total number of (state, step) pairs. *)
val num_choices : ('s, 'a) t -> int

(** Total number of probabilistic branches. *)
val num_branches : ('s, 'a) t -> int

(** {1 The rows} (shared, see above) *)

val step_off : ('s, 'a) t -> int array
val out_off : ('s, 'a) t -> int array
val tgt : ('s, 'a) t -> int array
val prob_q : ('s, 'a) t -> Proba.Rational.t array
val actions : ('s, 'a) t -> 'a array

(** [state expl i] is the state with index [i]. *)
val state : ('s, 'a) t -> int -> 's

(** [index expl s] is the index of an explored state; on a
    canon-reduced fragment, the index of [s]'s orbit representative. *)
val index : ('s, 'a) t -> 's -> int option

(** Indices of the start states. *)
val start_indices : ('s, 'a) t -> int list

(** [states_where expl pred] lists the indices satisfying a predicate. *)
val states_where : ('s, 'a) t -> ('s -> bool) -> int list

(** [indicator expl pred] is the predicate as a boolean array. *)
val indicator : ('s, 'a) t -> 's Core.Pred.t -> bool array

(** [check_invariant expl pred] returns the first violating state, if
    any.  Used for exhaustive invariant checking (Lemma 6.1). *)
val check_invariant : ('s, 'a) t -> ('s -> bool) -> 's option

(** Process-wide count of explorations performed ({!run} and
    {!run_budgeted} both count).  Read by [Models.stats] so surfaces
    can assert that the registry cache collapses repeated model uses
    into a single exploration. *)
val explorations : unit -> int
