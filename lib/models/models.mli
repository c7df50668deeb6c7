(** The model registry: one wiring point between the case studies and
    every surface that consumes them.

    A {!config} names one concrete case-study instance, and {!get}
    resolves it.  [prtb check], [prtb compile], [prtb serve], [prtb
    lint], [prtb export-dot], snapshots, the experiment harness and the
    benchmarks all go through this one memo table, so within one
    process invocation each (config, [max_states]) pair is explored and
    its {!Mdp.Arena} compiled {e exactly once} -- [prtb check lr
    --stats] reports [explorations: 1, compiles: 1] -- and the
    parameters a verdict reports are the parameters of the instance it
    checked.

    The registry is {e domain-safe}: concurrent [prtb serve] workers
    requesting the same key block on the single in-flight build instead
    of racing it, so the build-once guarantee survives contention
    (builds of distinct keys still run in parallel).

    The registry also owns all built-in lint targets for [prtb lint]
    (each target couples an automaton with the model knowledge that
    unlocks the deeper checks: tick classifier, intended terminals,
    finished claims). *)

(** The Example 4.1 two-coin automaton (here so the lint-target table
    needs nothing from the experiments library). *)
module Race = Race

(** The registry's LRU table, shared with the server's result cache. *)
module Cache = Cache

(** {1 Case-study configurations} *)

type model = [ `Lr | `Election | `Coin | `Consensus ]

(** ["lr"], ["election"], ["coin"], ["consensus"]. *)
val model_name : model -> string

(** Inverse of {!model_name}. *)
val model_of_string : string -> model option

(** The full parameter tuple of one case-study instance.  Fields that
    a model does not use hold fixed values ([topology] is ["ring"],
    [bound]/[cap]/[f] are [0], [initial] is [[||]]), so one record
    covers all case studies and equal instances have equal configs;
    build it with {!val:config}, which fills them in. *)
type config = {
  model : model;
  n : int;
  g : int;  (** digital-clock granularity *)
  k : int;  (** adversary step budget per process per slot *)
  topology : string;  (** ["ring"], ["line"] or ["star"] (lr only) *)
  bound : int;  (** coin barrier *)
  cap : int;  (** consensus round cap *)
  f : int;  (** consensus fault bound *)
  initial : bool array;  (** consensus initial estimates *)
  sym : Analysis.Symmetry.mode;  (** exploration mode *)
}

(** [config ~model ~n ()] with [g], [k] 1, topology ["ring"], coin
    [bound] 4, consensus [cap] 2 and sym [Off] unless given.  For
    consensus, [f] defaults to [(n-1)/2] and [initial] to a mixed start
    in which only the last process estimates 1.  Arguments the model
    does not use are ignored.  Raises [Invalid_argument] on an unknown
    topology or a non-ring topology for a model other than lr. *)
val config :
  ?g:int -> ?k:int -> ?topology:string -> ?bound:int -> ?cap:int ->
  ?f:int -> ?initial:bool array -> ?sym:Analysis.Symmetry.mode ->
  model:model -> n:int -> unit -> config

(** {1 Instances} *)

(** A compiled case-study instance, ready for the engines.  [Lr] is the
    paper's ring, [Lr_topo] a line or star. *)
type instance =
  | Lr of Lehmann_rabin.Proof.instance
  | Lr_topo of Lehmann_rabin.Proof.topo_instance
  | Election of Itai_rodeh.Proof.instance
  | Coin of Shared_coin.Proof.instance
  | Consensus of Ben_or.Proof.instance

(** A function over any instance's compiled arena and symmetry
    certificate. *)
type 'r arena_fn = {
  apply :
    's 'a. ('s, 'a) Mdp.Arena.t -> Analysis.Symmetry.certificate option ->
    'r;
}

val with_arena : 'r arena_fn -> instance -> 'r

(** Interned states of the instance's arena (orbit representatives on
    a quotient). *)
val num_states : instance -> int

(** A one-line human description, e.g.
    ["lr n=4 g=1 k=1 sym=on (40846 states)"]. *)
val describe : config -> instance -> string

(** {1 The registry}

    [get config] explores and compiles the instance on first use and
    memoizes it per ([config], [max_states]) for the lifetime of the
    process -- or, under {!set_capacity}, until evicted by more
    recently used instances.  [sym] [On] raises
    [Analysis.Symmetry.Not_certified] unless the declared group
    certifies; a state budget overrun raises
    [Mdp.Explore.Too_many_states]. *)
val get : ?max_states:int -> config -> instance

(** [preload ?max_states config inst] seeds the registry with an
    instance built elsewhere -- an arena snapshot loaded by [prtb serve
    --snapshot-dir] -- under exactly the key {!get} would use, so the
    first served query for those parameters is a cache hit with
    [explorations: 0, compiles: 0].  Returns [false] (keeping the
    existing entry) when the key is already cached or mid-build;
    preloaded entries respect {!set_capacity} like any other insert.
    Pass the [max_states] the consumers will ask {!get} with: a
    preload under another key is never hit. *)
val preload : ?max_states:int -> config -> instance -> bool

(** How a decoder rebuilds an arena under the current model code, given
    the automaton and declared symmetry the config denotes. *)
type rebuild = {
  rebuild :
    's 'a.
    pa:('s, 'a) Core.Pa.t -> spec:('s, 'a) Analysis.Symmetry.spec ->
    ('s, 'a) Mdp.Arena.t * Analysis.Symmetry.certificate option;
}

(** [assemble config r] is the instance [config] denotes, with its
    arena from [r] instead of an exploration (the snapshot loader).
    Raises [Invalid_argument] on an unknown topology. *)
val assemble : config -> rebuild -> instance

(** {1 Monte Carlo set-ups} *)

(** A model's simulation: automaton, scheduler, duration and start
    state, the target predicate, and [horizon], the time bound of the
    model's proof in slots (13g for lr, 2ng for election, 4B{^2}g for
    coin, 4·cap·g for consensus). *)
type simulation =
  | Simulation : {
      setup : ('s, 'a) Sim.Monte_carlo.setup;
      target : 's -> bool;
      horizon : int;
    }
      -> simulation

(** [simulation ?scheduler config]; [scheduler] (default
    ["uniform"]) names one of [Lehmann_rabin.Schedulers.all] for lr.
    [Error] names an unknown scheduler, a non-uniform one for another
    model, or a non-ring lr topology. *)
val simulation : ?scheduler:string -> config -> (simulation, string) result

(** {1 Cache bounds}

    [set_capacity (Some bytes)] bounds the memory the registry retains:
    every cached instance carries a cost estimated from its compiled
    arena size, and when the total exceeds the capacity the
    least-recently-used instances are evicted (an instance larger than
    the whole capacity is returned but not retained).  [prtb serve]
    wires [--cache-mb] here; the one-shot CLI default is [None]
    (unbounded, process lifetimes are one query long). *)
val set_capacity : int option -> unit

(** {1 Work accounting} *)

type stats = {
  explorations : int;  (** {!Mdp.Explore.explorations} *)
  compiles : int;  (** {!Mdp.Arena.compiles} *)
  builds : int;  (** instances actually constructed here *)
  cache_hits : int;  (** {!get} calls answered from the cache *)
  evictions : int;  (** instances dropped by {!set_capacity} pressure *)
  cached_entries : int;  (** instances currently retained *)
  cached_bytes : int;  (** their estimated total cost *)
}

(** Process-lifetime totals (the exploration and compile counters are
    global, so work done outside the registry is counted too). *)
val stats : unit -> stats

(** ["registry: explorations: %d, compiles: %d, builds: %d, cache \
    hits: %d, evictions: %d"] -- the line [prtb --stats] prints and CI
    greps. *)
val pp_stats : Format.formatter -> stats -> unit

(** {1 Lint targets} *)

type entry = {
  name : string;  (** CLI name, e.g. ["lr"] or ["example:walker"] *)
  doc : string;  (** one-line description for [--help] *)
  lint :
    max_states:int -> ?sym:Analysis.Symmetry.mode -> unit ->
    Analysis.Report.t;
      (** [sym] (default [Off]) selects the exploration mode; the
          [*-sym] targets pin it to [On] regardless. *)
}

(** The built-in targets, in display order. *)
val entries : entry list

val find_opt : string -> entry option

(** @raise Invalid_argument on unknown names. *)
val find : string -> entry

(** [guard name runner] downgrades a {!Mdp.Explore.Too_many_states}
    escape from an eagerly-exploring builder into a PA000 report, like
    {!Analysis.run} does for its own exploration, and an
    {!Analysis.Symmetry.Not_certified} escape (a [sym=On] build whose
    declared group failed to verify) into a PA030 error report.
    Exposed for external targets registered alongside {!entries}. *)
val guard :
  string ->
  (max_states:int -> ?sym:Analysis.Symmetry.mode -> unit ->
   Analysis.Report.t) ->
  max_states:int -> ?sym:Analysis.Symmetry.mode -> unit ->
  Analysis.Report.t

(** The quickstart walker automaton (also a lint target). *)
module Walker : sig
  type state = Done | Walk of { c : int; b : int }
  type action = Tick | Flip

  val is_tick : action -> bool
  val pa : (state, action) Core.Pa.t
end
