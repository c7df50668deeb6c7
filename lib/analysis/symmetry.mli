(** Static symmetry analysis with certified automorphisms (PA03x).

    A model {e declares} candidate permutations of its state and action
    spaces (ring rotation, process transposition, topology
    automorphisms); this pass {e verifies} each one is an automorphism
    of the probabilistic automaton by checking transition-distribution
    equivariance over the explored fragment: for every checked state
    [s] and generator [g], the multiset of enabled steps at [g s] must
    equal the [g]-image of the multiset at [s], with distributions
    compared outcome-by-outcome at exact rational weights, and the
    start set must be closed under [g].

    Verified generators yield a {!certificate}; on top of it,
    {!canonicalizer} gives the interning function that makes
    [Mdp.Explore] build the orbit quotient, which compiles through the
    ordinary [Mdp.Arena] CSR path.  Diagnostics:

    - [PA030] (error): a declared permutation is not an automorphism.
    - [PA031] (error): a claim/reachability predicate is not invariant
      under the verified group -- orbit reduction would be unsound.
    - [PA032] (info): the model is certifiably symmetric but was
      explored unreduced; reports the measured compression ratio. *)

(** How surfaces request reduction: [Off] never reduces, [On] demands
    a certificate and fails ({!Not_certified}) without one, [Auto]
    reduces when certification succeeds and silently falls back to the
    unreduced exploration otherwise. *)
type mode = Auto | On | Off

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** A candidate automorphism: a state permutation together with the
    matching action permutation.  Both must be bijections; the
    verifier detects most violations (via orbit overflow or
    equivariance failure) but cannot prove bijectivity of functions on
    an infinite state space. *)
type ('s, 'a) generator = private {
  gen_name : string;
  on_state : 's -> 's;
  on_action : 'a -> 'a;
}

val generator :
  name:string -> on_state:('s -> 's) -> on_action:('a -> 'a) ->
  ('s, 'a) generator

(** What a model declares: group generators, plus the named predicates
    (claim pre/post sets, reachability targets) that any sound
    reduction must leave invariant. *)
type ('s, 'a) spec = {
  generators : ('s, 'a) generator list;
  invariant_preds : (string * ('s -> bool)) list;
}

val spec :
  ?preds:(string * ('s -> bool)) list ->
  ('s, 'a) generator list -> ('s, 'a) spec

(** Raised by {!require} (and by surfaces running with [--sym on])
    when certification fails. *)
exception Not_certified of string

(** [orbit ~equal gens s]: closure of [s] under the generators.
    Raises [Invalid_argument] past [max_orbit] (default [40_320]
    = 8!), which indicates a non-bijective declaration. *)
val orbit :
  ?max_orbit:int -> equal:('s -> 's -> bool) ->
  ('s, 'a) generator list -> 's -> 's list

(** [canonicalizer ~equal spec] maps each state to its orbit
    representative: the minimum of the orbit under [compare] (default
    [Stdlib.compare]).  With no generators this is the identity.
    Intended as the [canon] argument of [Mdp.Explore.run]. *)
val canonicalizer :
  ?compare:('s -> 's -> int) -> ?max_orbit:int ->
  equal:('s -> 's -> bool) -> ('s, 'a) spec -> 's -> 's

(** Evidence that the group was verified on a fragment: per-generator
    spot-check fingerprints (a deterministic hash of the states each
    generator was checked at, for run-to-run comparison), coverage
    counts, and whether the fragment itself was orbit-reduced.
    [full_states] is the size of the union of the orbits of the
    fragment's states -- for a reduced fragment of a verified group
    this equals the unreduced reachable count. *)
type certificate = {
  cert_generators : (string * string) list;  (** (name, fingerprint) *)
  states_checked : int;
  full_states : int;
  reduced : bool;
  preds_checked : string list;
}

val certificate_to_json : certificate -> Json.t

(** [verify ~model spec expl] checks every generator and predicate
    over the fragment and returns the diagnostics plus the certificate
    when all checks pass ([None] under any PA030/PA031, or when there
    are no generators).

    [reduced] says [expl] was explored through a {!canonicalizer}: the
    verifier then expands each representative's full orbit and checks
    every member (sound coverage of the unreduced reachable set), and
    PA032 is suppressed.  Each member's steps are computed once and
    shared by all the (member, generator) pairs that use them.  On unreduced fragments larger than
    [max_checks] (state, generator) evaluations, states are
    stride-sampled; the certificate records actual coverage. *)
val verify :
  model:string ->
  ?reduced:bool ->
  ?max_orbit:int ->
  ?max_checks:int ->
  ('s, 'a) spec ->
  ('s, 'a) Mdp.Explore.t ->
  Diagnostic.t list * certificate option

(** [explored ~model ~mode spec pa] is the one-call surface used by
    proof builders: [Off] explores unreduced with no certificate;
    [On]/[Auto] explore the orbit quotient through the
    {!canonicalizer} and certify it with {!verify} (orbit-expanded,
    so the certificate covers the unreduced reachable set).  When
    certification fails, [Auto] silently rebuilds unreduced, [On]
    raises {!Not_certified}. *)
val explored :
  model:string ->
  mode:mode ->
  ?max_states:int ->
  ?max_orbit:int ->
  ?max_checks:int ->
  ('s, 'a) spec ->
  ('s, 'a) Core.Pa.t ->
  ('s, 'a) Mdp.Explore.t * certificate option
