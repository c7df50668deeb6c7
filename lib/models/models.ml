module Q = Proba.Rational
module D = Proba.Dist
module Sym = Analysis.Symmetry
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Race = Race
module Cache = Cache

(* ------------------------------------------------------------------ *)
(* Case-study configurations.

   A [config] names one concrete instance: every surface (prtb
   subcommands, the server, snapshots, the lint targets, the
   experiment harness, the benchmarks) builds one with [config] and
   resolves it with [get], so the parameters a body reports are the
   parameters of the instance it checked.  Fields a model does not use
   hold fixed values ([topology] "ring", [bound]/[cap]/[f] 0,
   [initial] [||]): the registry key and the snapshot bytes depend on
   them. *)

type model = [ `Lr | `Election | `Coin | `Consensus ]

let model_name = function
  | `Lr -> "lr"
  | `Election -> "election"
  | `Coin -> "coin"
  | `Consensus -> "consensus"

let model_of_string = function
  | "lr" -> Some `Lr
  | "election" -> Some `Election
  | "coin" -> Some `Coin
  | "consensus" -> Some `Consensus
  | _ -> None

type config = {
  model : model;
  n : int;
  g : int;
  k : int;
  topology : string;
  bound : int;
  cap : int;
  f : int;
  initial : bool array;
  sym : Sym.mode;
}

(* The consensus convention: f = (n-1)/2 tolerated faults and a mixed
   start in which only the last process estimates 1. *)
let config ?(g = 1) ?(k = 1) ?(topology = "ring") ?(bound = 4) ?(cap = 2)
    ?f ?initial ?(sym = Sym.Off) ~model ~n () =
  (match model, topology with
   | _, "ring" | `Lr, ("line" | "star") -> ()
   | `Lr, other -> invalid_arg (Printf.sprintf "unknown topology %S" other)
   | _, other ->
     invalid_arg
       (Printf.sprintf "topology %S applies to the lr system only" other));
  let c =
    { model; n; g; k; topology; bound = 0; cap = 0; f = 0; initial = [||];
      sym }
  in
  match model with
  | `Lr | `Election -> c
  | `Coin -> { c with bound }
  | `Consensus ->
    { c with
      cap;
      f = Option.value f ~default:((n - 1) / 2);
      initial =
        (match initial with
         | Some a -> a
         | None -> Array.init n (fun i -> i = n - 1)) }

let initial_bits c =
  String.init (Array.length c.initial) (fun i ->
      if c.initial.(i) then '1' else '0')

(* [None] is the paper's ring (the [Lr] instance). *)
let topology_of c =
  match c.topology with
  | "ring" -> None
  | "line" -> Some (LR.Topology.line c.n)
  | "star" -> Some (LR.Topology.star c.n)
  | other -> invalid_arg (Printf.sprintf "unknown topology %S" other)

(* ------------------------------------------------------------------ *)
(* Instances. *)

type instance =
  | Lr of LR.Proof.instance
  | Lr_topo of LR.Proof.topo_instance
  | Election of IR.Proof.instance
  | Coin of SC.Proof.instance
  | Consensus of BO.Proof.instance

type 'r arena_fn = {
  apply :
    's 'a. ('s, 'a) Mdp.Arena.t -> Sym.certificate option -> 'r;
}

let with_arena fn = function
  | Lr i -> fn.apply i.LR.Proof.arena i.LR.Proof.sym
  | Lr_topo i -> fn.apply i.LR.Proof.tarena i.LR.Proof.tsym
  | Election i -> fn.apply i.IR.Proof.arena i.IR.Proof.sym
  | Coin i -> fn.apply i.SC.Proof.arena i.SC.Proof.sym
  | Consensus i -> fn.apply i.BO.Proof.arena i.BO.Proof.sym

let num_states = with_arena { apply = (fun a _ -> Mdp.Arena.num_states a) }

let describe c inst =
  let extra =
    match c.model with
    | `Lr when c.topology <> "ring" ->
      Printf.sprintf " topology=%s" c.topology
    | `Coin -> Printf.sprintf " bound=%d" c.bound
    | `Consensus ->
      Printf.sprintf " f=%d cap=%d initial=%s" c.f c.cap (initial_bits c)
    | `Lr | `Election -> ""
  in
  Printf.sprintf "%s n=%d g=%d k=%d%s sym=%s (%d states)"
    (model_name c.model) c.n c.g c.k extra (Sym.mode_to_string c.sym)
    (num_states inst)

let build ?max_states c =
  let { n; g; k; sym; _ } = c in
  match c.model with
  | `Lr ->
    (match topology_of c with
     | None -> Lr (LR.Proof.build ?max_states ~g ~k ~sym ~n ())
     | Some topo ->
       Lr_topo (LR.Proof.build_topo ?max_states ~g ~k ~sym ~topo ()))
  | `Election -> Election (IR.Proof.build ?max_states ~g ~k ~sym ~n ())
  | `Coin -> Coin (SC.Proof.build ?max_states ~g ~k ~sym ~n ~bound:c.bound ())
  | `Consensus ->
    Consensus
      (BO.Proof.build ?max_states ~g ~k ~sym ~n ~f:c.f ~cap:c.cap
         ~initial:c.initial ())

type rebuild = {
  rebuild :
    's 'a.
    pa:('s, 'a) Core.Pa.t -> spec:('s, 'a) Sym.spec ->
    ('s, 'a) Mdp.Arena.t * Sym.certificate option;
}

let assemble c r =
  let { n; g; k; _ } = c in
  match c.model with
  | `Lr ->
    (match topology_of c with
     | None ->
       let params = { LR.Automaton.n; g; k } in
       let arena, sym =
         r.rebuild ~pa:(LR.Automaton.make params)
           ~spec:(LR.Symmetry.ring ~n ())
       in
       Lr { LR.Proof.params; expl = Mdp.Arena.explored arena; arena; sym }
     | Some topo ->
       let tarena, tsym =
         r.rebuild
           ~pa:(LR.Automaton.make_general ~topo ~g ~k)
           ~spec:(LR.Symmetry.spec topo)
       in
       Lr_topo
         { LR.Proof.topo; tg = g; tk = k;
           texpl = Mdp.Arena.explored tarena; tarena; tsym })
  | `Election ->
    let params = { IR.Automaton.n; g; k } in
    let arena, sym =
      r.rebuild ~pa:(IR.Automaton.make params) ~spec:(IR.Symmetry.spec params)
    in
    Election { IR.Proof.params; expl = Mdp.Arena.explored arena; arena; sym }
  | `Coin ->
    let params = { SC.Automaton.n; bound = c.bound; g; k } in
    let arena, sym =
      r.rebuild ~pa:(SC.Automaton.make params) ~spec:(SC.Symmetry.spec params)
    in
    Coin { SC.Proof.params; expl = Mdp.Arena.explored arena; arena; sym }
  | `Consensus ->
    let params = { BO.Automaton.n; f = c.f; cap = c.cap; g; k } in
    let initial = c.initial in
    let arena, sym =
      r.rebuild
        ~pa:(BO.Automaton.make ~initial params)
        ~spec:(BO.Symmetry.spec params ~initial)
    in
    Consensus
      { BO.Proof.params; initial; expl = Mdp.Arena.explored arena; arena;
        sym }

(* ------------------------------------------------------------------ *)
(* The registry.

   One memo table for every case study, so within one process
   invocation each (config, max_states) pair is explored and compiled
   exactly once no matter how many surfaces touch it.

   The registry is domain-safe: [prtb serve] workers hit it
   concurrently.  [mu] guards the [building] set; builds run OUTSIDE
   the lock (so distinct keys explore in parallel) with the key marked
   in [building], and domains asking for an in-flight key wait on
   [built_cond].  The result is the build-once guarantee under
   contention: N domains requesting the same key perform exactly one
   exploration and one compile (asserted by the multi-domain hammer in
   test/test_models.ml).

   Caching is optionally bounded: [set_capacity (Some bytes)] turns the
   table into an LRU with per-instance costs estimated from the
   compiled arena size.  The server wires [--cache-mb] here; the CLI
   default stays unbounded (process lifetimes are one query long). *)

(* Only the fields the model uses, so equal instances share a key. *)
let key ?max_states c =
  let common =
    Printf.sprintf "n=%d&g=%d&k=%d&max_states=%s&sym=%s" c.n c.g c.k
      (match max_states with None -> "" | Some m -> string_of_int m)
      (Sym.mode_to_string c.sym)
  in
  match c.model with
  | `Lr -> Printf.sprintf "lr?topology=%s&%s" c.topology common
  | `Election -> "election?" ^ common
  | `Coin -> Printf.sprintf "coin?bound=%d&%s" c.bound common
  | `Consensus ->
    Printf.sprintf "consensus?f=%d&cap=%d&initial=%s&%s" c.f c.cap
      (initial_bits c) common

(* Rough retained size of an instance: CSR rows, the interned state
   values and the memo overhead, all order-of-magnitude -- the LRU
   needs proportionality, not precision. *)
let registry : instance Cache.t =
  Cache.create ~cost:(fun i -> 4096 + (512 * num_states i)) ()

let mu = Mutex.create ()
let built_cond = Condition.create ()
let building : (string, unit) Hashtbl.t = Hashtbl.create 8
let builds_counter = Atomic.make 0

let set_capacity cap = Cache.set_capacity registry cap

let get ?max_states c =
  let key = key ?max_states c in
  Mutex.lock mu;
  let rec obtain () =
    match Cache.find registry key with
    | Some v ->
      Mutex.unlock mu;
      v
    | None when Hashtbl.mem building key ->
      Condition.wait built_cond mu;
      obtain ()
    | None ->
      Hashtbl.add building key ();
      Mutex.unlock mu;
      let result =
        try Ok (build ?max_states c)
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock mu;
      Hashtbl.remove building key;
      Condition.broadcast built_cond;
      (match result with
       | Error (e, bt) ->
         Mutex.unlock mu;
         Printexc.raise_with_backtrace e bt
       | Ok v ->
         Atomic.incr builds_counter;
         Cache.add registry key v;
         Mutex.unlock mu;
         v)
  in
  obtain ()

(* Seed the table with an instance built elsewhere (an arena snapshot
   loaded at daemon startup).  No build happens here so [builds] stays
   put -- the CI snapshot smoke asserts [explorations: 0, compiles: 0]
   on the first served query, which only holds if preloaded entries are
   indistinguishable from built ones on the lookup path.  A key that is
   already cached or mid-build keeps the existing/raced instance. *)
let preload ?max_states c inst =
  let key = key ?max_states c in
  Mutex.protect mu (fun () ->
      if Cache.mem registry key || Hashtbl.mem building key then false
      else begin
        Cache.add registry key inst;
        true
      end)

(* ------------------------------------------------------------------ *)
(* Monte Carlo set-ups. *)

type simulation =
  | Simulation : {
      setup : ('s, 'a) Sim.Monte_carlo.setup;
      target : 's -> bool;
      horizon : int;
    }
      -> simulation

let simulation ?(scheduler = "uniform") c =
  let { n; g; k; _ } = c in
  let uniform pa =
    if scheduler = "uniform" then Ok (Sim.Scheduler.uniform pa)
    else
      Error
        (Printf.sprintf "scheduler %S applies to the lr model only" scheduler)
  in
  let sim pa ~duration ~start ~target ~horizon scheduler =
    Simulation
      { setup = { Sim.Monte_carlo.pa; scheduler; duration; start }; target;
        horizon }
  in
  match c.model with
  | `Lr ->
    if c.topology <> "ring" then
      Error "Monte Carlo set-ups cover the lr ring only"
    else
      let pa = LR.Automaton.make { LR.Automaton.n; g; k } in
      (match List.assoc_opt scheduler (LR.Schedulers.all pa) with
       | None -> Error (Printf.sprintf "unknown scheduler %S" scheduler)
       | Some s ->
         Ok
           (sim pa ~duration:LR.Automaton.duration
              ~start:(LR.State.all_trying ~n ~g ~k)
              ~target:(Core.Pred.mem LR.Regions.c) ~horizon:(13 * g) s))
  | `Election ->
    let params = { IR.Automaton.n; g; k } in
    let pa = IR.Automaton.make params in
    Result.map
      (sim pa ~duration:IR.Automaton.duration
         ~start:(IR.Automaton.start params)
         ~target:IR.Automaton.leader_elected ~horizon:(2 * n * g))
      (uniform pa)
  | `Coin ->
    let params = { SC.Automaton.n; bound = c.bound; g; k } in
    let pa = SC.Automaton.make params in
    Result.map
      (sim pa ~duration:SC.Automaton.duration
         ~start:(SC.Automaton.start params)
         ~target:(SC.Automaton.decided params)
         ~horizon:(4 * c.bound * c.bound * g))
      (uniform pa)
  | `Consensus ->
    let params = { BO.Automaton.n; f = c.f; cap = c.cap; g; k } in
    let pa = BO.Automaton.make ~initial:c.initial params in
    Result.map
      (sim pa ~duration:BO.Automaton.duration
         ~start:(BO.Automaton.start params c.initial)
         ~target:BO.Automaton.some_decided ~horizon:(4 * c.cap * g))
      (uniform pa)

(* ------------------------------------------------------------------ *)
(* Work accounting. *)

type stats = {
  explorations : int;
  compiles : int;
  builds : int;
  cache_hits : int;
  evictions : int;
  cached_entries : int;
  cached_bytes : int;
}

let stats () =
  let c = Cache.stats registry in
  { explorations = Mdp.Explore.explorations ();
    compiles = Mdp.Arena.compiles ();
    builds = Atomic.get builds_counter;
    cache_hits = c.Cache.hits;
    evictions = c.Cache.evictions;
    cached_entries = c.Cache.entries;
    cached_bytes = c.Cache.cost_bytes }

let pp_stats fmt s =
  Format.fprintf fmt
    "registry: explorations: %d, compiles: %d, builds: %d, cache hits: %d, \
     evictions: %d"
    s.explorations s.compiles s.builds s.cache_hits s.evictions

(* ------------------------------------------------------------------ *)
(* The walker of examples/quickstart.ml, registered here so the lint
   gate also covers the automaton shape the tutorial teaches. *)

module Walker = struct
  type state = Done | Walk of { c : int; b : int }
  type action = Tick | Flip

  let is_tick = function Tick -> true | Flip -> false

  let enabled = function
    | Done -> [ { Core.Pa.action = Tick; dist = D.point Done } ]
    | Walk { c; b } ->
      let tick =
        if c > 0 then
          [ { Core.Pa.action = Tick;
              dist = D.point (Walk { c = c - 1; b = 1 }) } ]
        else []
      in
      let flip =
        if b > 0 then
          [ { Core.Pa.action = Flip;
              dist = D.coin Done (Walk { c = 1; b = b - 1 }) } ]
        else []
      in
      tick @ flip

  let pa =
    Core.Pa.make
      ~pp_state:(fun fmt -> function
        | Done -> Format.pp_print_string fmt "done"
        | Walk { c; b } -> Format.fprintf fmt "walk(c=%d,b=%d)" c b)
      ~pp_action:(fun fmt a ->
          Format.pp_print_string fmt
            (match a with Tick -> "tick" | Flip -> "flip"))
      ~start:[ Walk { c = 1; b = 1 } ]
      ~enabled ()
end

(* ------------------------------------------------------------------ *)
(* Claim extraction from the proof modules *)

let lr_claims inst =
  let arrows = LR.Proof.arrows inst in
  let claims =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.LR.Proof.label, c)) a.LR.Proof.claim)
      arrows
  in
  match LR.Proof.compose inst arrows with
  | Ok c -> claims @ [ ("composed", c) ]
  | Error _ -> claims

let lr_topo_claims inst =
  let arrows = LR.Proof.arrows_topo inst in
  let claims =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.LR.Proof.label, c)) a.LR.Proof.claim)
      arrows
  in
  match LR.Proof.compose_topo inst arrows with
  | Ok c -> claims @ [ ("composed", c) ]
  | Error _ -> claims

let ir_claims inst =
  let arrows = IR.Proof.arrows inst in
  let claims =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.IR.Proof.label, c)) a.IR.Proof.claim)
      arrows
  in
  match IR.Proof.compose inst arrows with
  | Ok c -> claims @ [ ("composed", c) ]
  | Error _ -> claims

let sc_claims inst =
  let arrows = SC.Proof.arrows inst in
  let claims =
    List.filter_map
      (fun a ->
         Option.map (fun c -> (a.SC.Proof.label, c)) a.SC.Proof.claim)
      arrows
  in
  match SC.Proof.compose inst arrows with
  | Ok c -> claims @ [ ("composed", c) ]
  | Error _ -> claims

(* ------------------------------------------------------------------ *)
(* Lint runners.  A case-study target resolves its instance through
   [get] and hands the instance's arena to the analysis, so a process
   that both checks and lints a model explores and compiles it once.

   Every symmetry-declaring model also hands its declared spec to the
   analysis, so [prtb lint] verifies the generators (PA030), the
   predicate invariance (PA031) and nudges unreduced-but-symmetric runs
   (PA032) alongside the classic PA checks.  [sym] selects the
   exploration mode (the certificate gating the quotient is
   re-derived inside the analysis pass; lint targets are small enough
   that the duplicated verification is in the noise). *)

let lint_case name config ~max_states ?sym () =
  let config = { config with sym = Option.value sym ~default:Sym.Off } in
  let run (type s a) ~is_tick ~claims ~(symmetry : (s, a) Sym.spec) ~cert
      ~arena (expl : (s, a) Mdp.Explore.t) =
    Analysis.run_explored ~arena
      (Analysis.config ~name ~is_tick ~claims ~max_states ~symmetry
         ~sym_reduced:(cert <> None) (Mdp.Explore.automaton expl))
      expl
  in
  match get ~max_states config with
  | Lr inst ->
    run ~is_tick:LR.Automaton.is_tick ~claims:(lr_claims inst)
      ~symmetry:(LR.Symmetry.ring ~n:config.n ()) ~cert:inst.LR.Proof.sym
      ~arena:inst.LR.Proof.arena inst.LR.Proof.expl
  | Lr_topo inst ->
    run ~is_tick:LR.Automaton.is_tick ~claims:(lr_topo_claims inst)
      ~symmetry:(LR.Symmetry.spec inst.LR.Proof.topo)
      ~cert:inst.LR.Proof.tsym ~arena:inst.LR.Proof.tarena
      inst.LR.Proof.texpl
  | Election inst ->
    run ~is_tick:IR.Automaton.is_tick ~claims:(ir_claims inst)
      ~symmetry:(IR.Symmetry.spec inst.IR.Proof.params)
      ~cert:inst.IR.Proof.sym ~arena:inst.IR.Proof.arena inst.IR.Proof.expl
  | Coin inst ->
    run ~is_tick:SC.Automaton.is_tick ~claims:(sc_claims inst)
      ~symmetry:(SC.Symmetry.spec inst.SC.Proof.params)
      ~cert:inst.SC.Proof.sym ~arena:inst.SC.Proof.arena inst.SC.Proof.expl
  | Consensus inst ->
    let arrow =
      BO.Proof.decision_arrow inst ~rounds:config.cap
        ~prob:(Q.pow Q.half config.n)
    in
    let claims =
      match arrow.BO.Proof.claim with
      | Some c -> [ (arrow.BO.Proof.label, c) ]
      | None -> []
    in
    run ~is_tick:BO.Automaton.is_tick ~claims
      ~symmetry:
        (BO.Symmetry.spec inst.BO.Proof.params ~initial:inst.BO.Proof.initial)
      ~cert:inst.BO.Proof.sym ~arena:inst.BO.Proof.arena inst.BO.Proof.expl

let lint_walker ~max_states ?sym:_ () =
  Analysis.run
    (Analysis.config ~name:"example:walker" ~is_tick:Walker.is_tick
       ~max_states Walker.pa)

let lint_race ~max_states ?sym:_ () =
  Analysis.run
    (Analysis.config ~name:"example:race"
       ~accept_terminal:(fun s ->
           s.Race.p <> Race.Unflipped && s.Race.q <> Race.Unflipped)
       ~max_states Race.pa)

let lint_lr_crash ~max_states ?sym:_ () =
  let config =
    { Faults.Lr.params = { LR.Automaton.n = 3; g = 1; k = 1 };
      faults = Faults.Fault.v ~crash:1 ();
      release = true }
  in
  let d = Faults.Lr.derive ~max_states config in
  let claims =
    List.filter_map
      (fun (a : Faults.Lr.arrow) ->
         Option.map (fun c -> (a.Faults.Lr.label, c)) a.Faults.Lr.claim)
      [ d.Faults.Lr.arrow1; d.Faults.Lr.arrow2 ]
    @ (match d.Faults.Lr.composed with
       | Ok c -> [ ("composed", c) ]
       | Error _ -> [])
  in
  Analysis.run
    (Analysis.config ~name:"lr-crash" ~is_tick:Faults.Lr.is_tick ~claims
       ~fault_view:
         (Faults.Inject.faulted,
          Faults.Inject.effective_proc Faults.Lr.proc_of_action)
       ~max_states
       (Faults.Lr.make config))

(* The proof-module builders explore eagerly, so a tight state budget
   surfaces as [Too_many_states] before [Analysis.run_explored] can
   shield it; report it as PA000 like the library does instead of
   letting the exception escape to the CLI.  [Not_certified] (a
   [--sym on] build whose declared group failed to verify) likewise
   becomes an error report, so [prtb lint --strict] fails on it
   instead of crashing. *)
let guard name runner ~max_states ?sym () =
  try runner ~max_states ?sym () with
  | Mdp.Explore.Too_many_states n ->
    (* At raise time exactly [n] states had been interned, so [n] is
       the partial state count, not just the configured ceiling. *)
    Analysis.Report.make
      { Analysis.Report.model = name; states = n; choices = 0;
        branches = 0;
        skipped = [ "all checks (exploration exceeded the state budget)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA000
          Analysis.Diagnostic.Warning ~model:name
          (Printf.sprintf
             "exploration stopped after interning %d states while building \
              the model; all checks skipped (raise --max-states)"
             n) ]
  | Analysis.Symmetry.Not_certified msg ->
    Analysis.Report.make
      { Analysis.Report.model = name; states = 0; choices = 0;
        branches = 0;
        skipped = [ "all checks (symmetry certification failed)" ] }
      [ Analysis.Diagnostic.v Analysis.Diagnostic.PA030
          Analysis.Diagnostic.Error ~model:name msg ]

(* ------------------------------------------------------------------ *)
(* The registry *)

type entry = {
  name : string;
  doc : string;
  lint :
    max_states:int -> ?sym:Analysis.Symmetry.mode -> unit ->
    Analysis.Report.t;
}

(* The [-sym] variants pin the exploration mode to [On]: they lint the
   certified orbit quotient (and fail loudly if certification breaks),
   whatever [--sym] the caller passed. *)
let force_on runner ~max_states ?sym:_ () =
  runner ~max_states ?sym:(Some Analysis.Symmetry.On) ()

let entries =
  let case ?topology ?bound ~model ~n name =
    lint_case name (config ?topology ?bound ~model ~n ())
  in
  List.map (fun (name, doc, runner) ->
      { name; doc; lint = guard name runner })
  @@
  [ ("lr", "Lehmann-Rabin ring (n=3) + Section 6.2 claims",
     case ~model:`Lr ~n:3 "lr");
    ("lr-line", "Lehmann-Rabin line topology (n=3)",
     case ~topology:"line" ~model:`Lr ~n:3 "lr-line");
    ("lr-star", "Lehmann-Rabin star topology (n=3)",
     case ~topology:"star" ~model:`Lr ~n:3 "lr-star");
    ("election", "Itai-Rodeh leader election (n=3) + ladder claims",
     case ~model:`Election ~n:3 "election");
    ("coin", "shared coin (n=2, barrier 3) + ladder claims",
     case ~bound:3 ~model:`Coin ~n:2 "coin");
    ("consensus", "Ben-Or (n=3, f=1, 2 rounds) + decision claim",
     case ~model:`Consensus ~n:3 "consensus");
    ("lr-sym", "lr on the certified rotation-orbit quotient",
     force_on (case ~model:`Lr ~n:3 "lr"));
    ("election-sym", "election on the certified transposition quotient",
     force_on (case ~model:`Election ~n:3 "election"));
    ("coin-sym", "coin on the certified transposition quotient",
     force_on (case ~bound:3 ~model:`Coin ~n:2 "coin"));
    ("consensus-sym", "consensus on the certified equal-input quotient",
     force_on (case ~model:`Consensus ~n:3 "consensus"));
    ("lr-crash",
     "Lehmann-Rabin ring (n=3) under one crash + degraded claims",
     lint_lr_crash);
    ("example:walker", "the quickstart walker automaton", lint_walker);
    ("example:race", "the Example 4.1 two-coin automaton", lint_race) ]

let find_opt name =
  List.find_opt (fun e -> String.equal e.name name) entries

let find name =
  match find_opt name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Models.find: unknown model %S" name)
