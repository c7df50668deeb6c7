module Q = Proba.Rational
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Race = Models.Race

type config = {
  lr_ns : int list;
  lr_g : int;
  lr_k : int;
  sweep_gk : bool;
  ir_ns : int list;
  coin_cases : (int * int) list;  (** (n, bound) pairs for E11 *)
  sim_ns : int list;
  sim_trials : int;
  seed : int;
}

let default =
  { lr_ns = [ 3 ]; lr_g = 1; lr_k = 1; sweep_gk = true;
    ir_ns = [ 2; 3; 4; 5 ];
    coin_cases = [ (2, 2); (2, 4); (3, 3); (5, 4) ];
    sim_ns = [ 4; 6; 8; 12 ]; sim_trials = 2000; seed = 1994 }

let quick =
  { default with sweep_gk = false; ir_ns = [ 2; 3 ];
                 coin_cases = [ (2, 2); (2, 3) ]; sim_ns = [ 4 ];
                 sim_trials = 200 }

let full =
  { default with lr_ns = [ 3; 4 ]; ir_ns = [ 2; 3; 4; 5; 6 ];
                 coin_cases = [ (2, 2); (2, 4); (3, 3); (5, 4); (4, 6) ];
                 sim_ns = [ 4; 6; 8; 12; 16; 24 ]; sim_trials = 5000 }

(* Instances come from the model registry, whose process-wide memo
   table plays the role the harness's private caches used to: repeated
   experiments in one run share explorations and compiled arenas. *)
type ctx = { config : config }

let make_ctx config = { config }

let lr_instance ctx ~n ~g ~k =
  ignore ctx;
  match Models.get (Models.config ~g ~k ~model:`Lr ~n ()) with
  | Models.Lr i -> i
  | _ -> assert false

let ir_instance ctx ~n =
  ignore ctx;
  match Models.get (Models.config ~model:`Election ~n ()) with
  | Models.Election i -> i
  | _ -> assert false

(* The ring comes back as the paper's [Lr] instance; E10 reads it as
   one general topology among others (same automaton, same arena). *)
let topo_instance ~topology ~n =
  match Models.get (Models.config ~topology ~model:`Lr ~n ()) with
  | Models.Lr_topo t -> t
  | Models.Lr i ->
    { LR.Proof.topo = LR.Topology.ring n; tg = 1; tk = 1;
      texpl = i.LR.Proof.expl; tarena = i.LR.Proof.arena;
      tsym = i.LR.Proof.sym }
  | _ -> assert false

let coin_instance ~n ~bound =
  match Models.get (Models.config ~bound ~model:`Coin ~n ()) with
  | Models.Coin i -> i
  | _ -> assert false

let consensus_instance ?f ?initial ~cap n =
  match
    Models.get (Models.config ?f ?initial ~cap ~model:`Consensus ~n ())
  with
  | Models.Consensus i -> i
  | _ -> assert false

let banner id title claim =
  Printf.printf "\n=== %s: %s ===\n" id title;
  Printf.printf "paper claim: %s\n\n" claim

let verdict = function true -> "OK" | false -> "VIOLATED"

(* ----------------------------------------------------------------- *)

let e1_arrows ctx =
  banner "E1" "the five phase statements (Sec. 6.2 / App. A)"
    "A.1: P -1->_1 C;  A.3: T -2->_1 RT∪C;  A.15: RT -3->_1 F∪G∪P;  \
     A.14: F -2->_1/2 G∪P;  A.11: G -5->_1/4 P";
  let t =
    Table.create
      [ "n"; "g"; "k"; "arrow"; "paper t"; "paper p"; "attained min";
        "pre-states"; "verdict" ]
  in
  let configs =
    let base =
      List.map (fun n -> (n, ctx.config.lr_g, ctx.config.lr_k)) ctx.config.lr_ns
    in
    if ctx.config.sweep_gk then base @ [ (3, 1, 2); (3, 2, 1) ] else base
  in
  List.iter
    (fun (n, g, k) ->
       let inst = lr_instance ctx ~n ~g ~k in
       List.iter
         (fun a ->
            Table.row t
              [ string_of_int n; string_of_int g; string_of_int k;
                Printf.sprintf "%s: %s -> %s" a.LR.Proof.label
                  (Core.Pred.name a.LR.Proof.pre)
                  (Core.Pred.name a.LR.Proof.post);
                Q.to_string a.LR.Proof.time; Q.to_string a.LR.Proof.prob;
                Q.to_string a.LR.Proof.attained;
                string_of_int a.LR.Proof.pre_states;
                verdict (a.LR.Proof.claim <> None) ])
         (LR.Proof.arrows inst))
    configs;
  Table.print t;
  print_newline ()

let e2_composed ctx =
  banner "E2" "composition into T -13->_1/8 C (Prop 3.2 + Thm 3.4)"
    "T -13->_1/8 C under Unit-Time, derived from the five arrows";
  List.iter
    (fun n ->
       let inst =
         lr_instance ctx ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k
       in
       match LR.Proof.composed inst with
       | Error e -> Printf.printf "n=%d: FAILED (%s)\n" n e
       | Ok claim ->
         Format.printf "n=%d: %a  [fully verified: %b]@." n Core.Claim.pp
           claim
           (Core.Claim.fully_verified claim);
         if n = List.hd ctx.config.lr_ns then begin
           Format.printf "@.derivation (n=%d):@.%a@." n
             Core.Claim.pp_derivation claim
         end)
    ctx.config.lr_ns;
  print_newline ()

let lr_sim_setup ~n ~g ~k scheduler_of =
  let params = { LR.Automaton.n; g; k } in
  let pa = LR.Automaton.make params in
  (pa,
   { Sim.Monte_carlo.pa;
     scheduler = scheduler_of pa;
     duration = LR.Automaton.duration;
     start = LR.State.all_trying ~n ~g ~k })

let e3_expected ctx =
  banner "E3" "expected time to progress (Sec. 6.2 recurrence)"
    "E[V] = 60 from RT to P; expected time from T to C at most 63";
  let bound = LR.Proof.expected_bound () in
  Format.printf "derived bound:@.%a@.@." Core.Expected.pp bound;
  let t =
    Table.create [ "method"; "n"; "scheduler"; "E[time T->C]"; "vs 63" ] in
  List.iter
    (fun n ->
       let inst =
         lr_instance ctx ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k
       in
       let worst = LR.Proof.max_expected_time inst in
       Table.row t
         [ "exhaustive (worst adversary)"; string_of_int n; "optimal";
           Printf.sprintf "%.3f" worst; verdict (worst <= 63.0) ])
    ctx.config.lr_ns;
  List.iter
    (fun n ->
       List.iter
         (fun (name, sched_of) ->
            let _, setup =
              lr_sim_setup ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k sched_of
            in
            let summary, missed =
              Sim.Monte_carlo.estimate_time setup
                ~target:(Core.Pred.mem LR.Regions.c)
                ~trials:ctx.config.sim_trials ~seed:ctx.config.seed ()
            in
            let mean =
              Proba.Stat.Summary.mean summary
              /. float_of_int ctx.config.lr_g
            in
            Table.row t
              [ Printf.sprintf "simulation (%d trials, %d missed)"
                  ctx.config.sim_trials missed;
                string_of_int n; name; Printf.sprintf "%.3f" mean;
                verdict (mean <= 63.0) ])
         [ ("uniform", LR.Schedulers.uniform);
           ("eager", LR.Schedulers.eager);
           ("delayer", LR.Schedulers.delayer);
           ("starver", LR.Schedulers.starver);
           ("round-robin", LR.Schedulers.round_robin) ])
    ctx.config.sim_ns;
  Table.print t;
  print_newline ()

let e4_independence ctx =
  ignore ctx;
  banner "E4" "independence proof rules (Sec. 4, Prop 4.2, Ex. 4.1)"
    "P[first(flip_P,H) ∩ first(flip_Q,T)] >= 1/4 under every adversary; \
     naive conditional independence fails";
  let premise =
    Core.Event.check_premise Race.pa ~states:Race.all_states
      [ (Race.Flip_p, Race.p_heads, Q.half);
        (Race.Flip_q, Race.q_tails, Q.half) ]
  in
  Printf.printf "Proposition 4.2 premise (every flip step gives its set \
                 probability >= 1/2): %s\n\n" (verdict premise);
  let t =
    Table.create [ "adversary"; "event"; "probability"; "Prop 4.2 bound" ]
  in
  let evaluate name adv =
    let tree = Core.Exec_automaton.unfold Race.pa adv Race.start ~max_depth:4 in
    let first_p = Core.Event.first Race.Flip_p Race.p_heads in
    let first_q = Core.Event.first Race.Flip_q Race.q_tails in
    let conj = Core.Event.conj first_p first_q in
    let next =
      Core.Event.next
        [ (Race.Flip_p, Race.p_heads); (Race.Flip_q, Race.q_tails) ]
    in
    let p e = Q.to_string (Core.Exec_automaton.prob_exact e tree) in
    Table.row t [ name; "first(flip_P, H)"; p first_p; "-" ];
    Table.row t [ name; "first(flip_Q, T)"; p first_q; "-" ];
    Table.row t [ name; "conjunction"; p conj; ">= 1/4 (product)" ];
    Table.row t [ name; "next(...)"; p next; ">= 1/2 (min)" ];
    (* The cautionary conditional probability of Example 4.1. *)
    let both =
      Core.Pred.make "both" (fun s ->
          s.Race.p <> Race.Unflipped && s.Race.q <> Race.Unflipped)
    in
    let good =
      Core.Pred.make "H,T" (fun s ->
          s.Race.p = Race.Heads && s.Race.q = Race.Tails)
    in
    let pb =
      Core.Exec_automaton.prob_exact (Core.Event.eventually both) tree
    in
    if not (Q.is_zero pb) then begin
      let pg =
        Core.Exec_automaton.prob_exact (Core.Event.eventually good) tree
      in
      Table.row t
        [ name; "P[H,T | both flipped]"; Q.to_string (Q.div pg pb);
          "naive claim: 1/4" ]
    end
  in
  evaluate "fair" Race.fair_adversary;
  evaluate "dependency (Ex 4.1)" Race.dependency_adversary;
  Table.print t;
  print_newline ()

let e5_invariant ctx =
  banner "E5" "Lemma 6.1: resources are determined by local states"
    "for every reachable state: Res_i taken iff a neighbor holds it, \
     never both";
  let t = Table.create [ "method"; "n"; "states"; "violations" ] in
  List.iter
    (fun n ->
       let inst =
         lr_instance ctx ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k
       in
       let bad = LR.Invariant.check inst.LR.Proof.expl in
       Table.row t
         [ "exhaustive"; string_of_int n;
           string_of_int (Mdp.Explore.num_states inst.LR.Proof.expl);
           (match bad with None -> "0" | Some _ -> "FOUND") ])
    ctx.config.lr_ns;
  (* Randomized walks at sizes beyond exhaustive reach. *)
  List.iter
    (fun n ->
       let pa, _ = lr_sim_setup ~n ~g:1 ~k:1 LR.Schedulers.uniform in
       let rng = Proba.Rng.create ~seed:ctx.config.seed in
       let violations = ref 0 in
       let visited = ref 0 in
       for _ = 1 to 50 do
         let outcome =
           Sim.Engine.run pa (Sim.Scheduler.uniform pa)
             ~rng:(Proba.Rng.split rng)
             ~stop:(fun s ->
                 incr visited;
                 if not (LR.Invariant.lemma_6_1 s) then incr violations;
                 false)
             ~max_steps:2000
             (LR.State.initial ~n ~g:1 ~k:1)
         in
         ignore outcome
       done;
       Table.row t
         [ "random walks"; string_of_int n; string_of_int !visited;
           string_of_int !violations ])
    ctx.config.sim_ns;
  Table.print t;
  print_newline ()

let e6_baseline ctx =
  banner "E6" "qualitative baseline (Zuck-Pnueli-style liveness)"
    "progress holds with probability 1 -- but yields no time constant; \
     the paper's method adds (13, 1/8) and E <= 63";
  let t =
    Table.create
      [ "n"; "liveness Pmin[T => eventually C] = 1"; "quantitative (13, p)";
        "expected bound" ]
  in
  List.iter
    (fun n ->
       let inst =
         lr_instance ctx ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k
       in
       let live = LR.Proof.liveness_holds inst in
       let direct = LR.Proof.direct_bound inst in
       Table.row t
         [ string_of_int n; verdict live;
           Printf.sprintf "attained %s (paper: 1/8)" (Q.to_string direct);
           "63 (Sec 6.2)" ])
    ctx.config.lr_ns;
  Table.print t;
  print_newline ()

let time_of f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let e7_scaling ctx =
  banner "E7" "checker and simulator scaling"
    "(not a paper claim: engineering envelope of the reproduction)";
  let t =
    Table.create
      [ "system"; "n"; "g"; "k"; "states"; "choices"; "explore s";
        "check A.11 s" ]
  in
  List.iter
    (fun (n, g, k) ->
       let (inst : LR.Proof.instance), explore_time =
         time_of (fun () -> LR.Proof.build ~n ~g ~k ())
       in
       let _, check_time =
         time_of (fun () ->
             List.exists (fun a -> a.LR.Proof.label = "A.11")
               (LR.Proof.arrows inst))
       in
       Table.row t
         [ "lehmann-rabin"; string_of_int n; string_of_int g;
           string_of_int k;
           string_of_int (Mdp.Explore.num_states inst.LR.Proof.expl);
           string_of_int (Mdp.Explore.num_choices inst.LR.Proof.expl);
           Printf.sprintf "%.2f" explore_time;
           Printf.sprintf "%.2f" check_time ])
    (List.map (fun n -> (n, ctx.config.lr_g, ctx.config.lr_k))
       ctx.config.lr_ns);
  List.iter
    (fun n ->
       let (inst : IR.Proof.instance), explore_time =
         time_of (fun () -> IR.Proof.build ~n ())
       in
       Table.row t
         [ "itai-rodeh"; string_of_int n; "1"; "1";
           string_of_int (Mdp.Explore.num_states inst.IR.Proof.expl);
           string_of_int (Mdp.Explore.num_choices inst.IR.Proof.expl);
           Printf.sprintf "%.2f" explore_time; "-" ])
    ctx.config.ir_ns;
  (* Simulator throughput. *)
  let n = List.hd ctx.config.sim_ns in
  let pa, setup = lr_sim_setup ~n ~g:1 ~k:1 LR.Schedulers.uniform in
  ignore pa;
  let steps = ref 0 in
  let (_ : unit), sim_time =
    time_of (fun () ->
        let root = Proba.Rng.create ~seed:ctx.config.seed in
        for _ = 1 to 200 do
          let outcome =
            Sim.Engine.run setup.Sim.Monte_carlo.pa
              setup.Sim.Monte_carlo.scheduler ~rng:(Proba.Rng.split root)
              ~stop:(Core.Pred.mem LR.Regions.c)
              ~duration:LR.Automaton.duration setup.Sim.Monte_carlo.start
          in
          steps := !steps + outcome.Sim.Engine.steps
        done)
  in
  Printf.printf "\nsimulator throughput (n=%d): %.0f steps/s\n" n
    (float_of_int !steps /. sim_time);
  Table.print t;
  print_newline ()

let e8_lower_bound ctx =
  banner "E8" "tightness probe (paper Sec. 7: lower bounds left open)"
    "how far above 1/8 and below 63 does the worst adversary actually sit?";
  let t =
    Table.create
      [ "n"; "g"; "k"; "exact min P[T -> C within 13]"; "paper bound";
        "worst E[time] (exhaustive)"; "derived bound" ]
  in
  let configs =
    List.map (fun n -> (n, ctx.config.lr_g, ctx.config.lr_k)) ctx.config.lr_ns
    @ (if ctx.config.sweep_gk then [ (3, 1, 2); (3, 2, 1) ] else [])
  in
  List.iter
    (fun (n, g, k) ->
       let inst = lr_instance ctx ~n ~g ~k in
       let direct = LR.Proof.direct_bound inst in
       let worst = LR.Proof.max_expected_time inst in
       Table.row t
         [ string_of_int n; string_of_int g; string_of_int k;
           Q.to_string direct; "1/8"; Printf.sprintf "%.3f" worst; "63" ])
    configs;
  Table.print t;
  (* Cross-validation: extract the worst memoryless adversary from the
     value iteration and replay it in the simulator. *)
  let n = List.hd ctx.config.lr_ns in
  let inst = lr_instance ctx ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k in
  let predicted, scheduler = LR.Proof.worst_adversary inst in
  let setup =
    { Sim.Monte_carlo.pa = Mdp.Explore.automaton inst.LR.Proof.expl;
      scheduler;
      duration = LR.Automaton.duration;
      start = LR.State.all_trying ~n ~g:ctx.config.lr_g ~k:ctx.config.lr_k }
  in
  let summary, missed =
    Sim.Monte_carlo.estimate_time setup ~target:(Core.Pred.mem LR.Regions.c)
      ~trials:ctx.config.sim_trials ~seed:ctx.config.seed ()
  in
  Printf.printf
    "\nextracted worst adversary (n=%d, from the all-trying state): value \
     iteration predicts E = %.3f;\nreplaying it in the simulator gives \
     %.3f (%d trials, %d missed).\n" n predicted
    (Proba.Stat.Summary.mean summary /. float_of_int ctx.config.lr_g)
    ctx.config.sim_trials missed;
  (* Beyond exhaustive reach: hill-climb a priority-table scheduler to
     probe the worst case empirically (the paper's open lower-bound
     direction). *)
  let big = List.fold_left Stdlib.max 4 ctx.config.sim_ns in
  let params = { LR.Automaton.n = big; g = 1; k = 1 } in
  let pa = LR.Automaton.make params in
  let start = LR.State.all_trying ~n:big ~g:1 ~k:1 in
  let score ranks =
    let setup =
      { Sim.Monte_carlo.pa; scheduler = LR.Schedulers.of_ranks pa ranks;
        duration = LR.Automaton.duration; start }
    in
    let summary, _ =
      Sim.Monte_carlo.estimate_time setup ~target:(Core.Pred.mem LR.Regions.c)
        ~trials:(Stdlib.max 100 (ctx.config.sim_trials / 10))
        ~seed:ctx.config.seed ~max_steps:50_000 ()
    in
    Proba.Stat.Summary.mean summary
  in
  let neighbor ranks rng =
    let fresh = Array.copy ranks in
    fresh.(Proba.Rng.int rng (Array.length fresh)) <- Proba.Rng.int rng 10;
    fresh
  in
  let found =
    Sim.Search.hill_climb
      ~rng:(Proba.Rng.create ~seed:ctx.config.seed)
      ~init:(Array.make LR.Schedulers.num_classes 5)
      ~neighbor ~score ~steps:25 ~restarts:1 ()
  in
  Printf.printf
    "\nadversary search at n=%d (priority tables, %d evaluations): worst \
     E[time] found = %.3f\n" big found.Sim.Search.evaluations
    found.Sim.Search.score;
  Printf.printf
    "\nThe gap (paper: \"the upper bound could easily be improved by a \
     finer analysis\")\nshrinks as the adversary gains power (larger k, \
     finer g).\n\n"

let e9_election ctx =
  banner "E9" "second case study: randomized leader election"
    "at_most(k) -1->_1/2 at_most(k-1); composed: leader within n-1 units \
     with prob 2^-(n-1); E[election] <= 2(n-1)";
  let t =
    Table.create
      [ "n"; "rungs OK"; "composed claim"; "exact min within n-1";
        "E bound"; "E measured (worst)" ]
  in
  List.iter
    (fun n ->
       let inst = ir_instance ctx ~n in
       let arrows = IR.Proof.arrows inst in
       let all_ok = List.for_all (fun a -> a.IR.Proof.claim <> None) arrows in
       let composed =
         match IR.Proof.compose inst arrows with
         | Ok c -> Format.asprintf "%a" Core.Claim.pp c
         | Error e -> "FAILED: " ^ e
       in
       Table.row t
         [ string_of_int n;
           Printf.sprintf "%d/%d"
             (List.length (List.filter (fun a -> a.IR.Proof.claim <> None)
                             arrows))
             (List.length arrows);
           composed;
           Q.to_string (IR.Proof.direct_bound inst);
           Q.to_string (Core.Expected.value (IR.Proof.expected_bound ~n));
           Printf.sprintf "%.3f" (IR.Proof.max_expected_time inst) ];
       ignore all_ok)
    ctx.config.ir_ns;
  Table.print t;
  print_newline ()

let e10_topologies ctx =
  banner "E10"
    "beyond rings (paper Sec. 7: \"topologies more general than rings\")"
    "do the five arrows and the composed bound survive on other \
     two-resource conflict topologies?";
  let t =
    Table.create
      [ "topology"; "states"; "invariant"; "A.14 min"; "A.11 min";
        "composed"; "direct 13-unit min"; "worst E[time]" ]
  in
  let topos =
    [ ("ring", 3); ("line", 3); ("star", 3) ]
    @ (if ctx.config.lr_ns |> List.exists (fun n -> n >= 4) then
         [ ("line", 4) ]
       else [])
  in
  List.iter
    (fun (topology, n) ->
       let inst = topo_instance ~topology ~n in
       let arrows = LR.Proof.arrows_topo inst in
       let attained label =
         match List.find_opt (fun a -> a.LR.Proof.label = label) arrows with
         | Some a -> Q.to_string a.LR.Proof.attained
         | None -> "?"
       in
       let composed =
         match LR.Proof.compose_topo inst arrows with
         | Ok c ->
           Printf.sprintf "(%s, %s)"
             (Q.to_string (Core.Claim.time c))
             (Q.to_string (Core.Claim.prob c))
         | Error _ -> "FAILED"
       in
       Table.row t
         [ LR.Topology.name inst.LR.Proof.topo;
           string_of_int (Mdp.Explore.num_states inst.LR.Proof.texpl);
           (match LR.Proof.invariant_topo inst with
            | None -> "OK" | Some _ -> "VIOLATED");
           attained "A.14"; attained "A.11"; composed;
           Q.to_string (LR.Proof.direct_bound_topo inst);
           Printf.sprintf "%.3f" (LR.Proof.max_expected_time_topo inst) ])
    topos;
  Table.print t;
  Printf.printf
    "\nThe paper's per-arrow constants are ring-tight: on the line and \
     the star the structural\nasymmetry makes the worst cases strictly \
     easier, and all arrows still verify.\n\n"

let e11_shared_coin ctx =
  banner "E11"
    "third case study: a shared-coin random walk (method limits)"
    "ladder gives decided within B units with prob 2^-B (valid); the true \
     law is E[time] = B^2/n -- composition can be exponentially loose";
  let t =
    Table.create
      [ "n"; "B"; "rungs OK"; "composed"; "direct min within B";
        "E exact"; "B^2/n"; "live" ]
  in
  List.iter
    (fun (n, bound) ->
       let inst = coin_instance ~n ~bound in
       let arrows = SC.Proof.arrows inst in
       let ok = List.length (List.filter (fun a -> a.SC.Proof.claim <> None) arrows) in
       let composed =
         match SC.Proof.compose inst arrows with
         | Ok c ->
           Printf.sprintf "(%s, %s)"
             (Q.to_string (Core.Claim.time c))
             (Q.to_string (Core.Claim.prob c))
         | Error _ -> "FAILED"
       in
       Table.row t
         [ string_of_int n; string_of_int bound;
           Printf.sprintf "%d/%d" ok (List.length arrows); composed;
           Q.to_string (SC.Proof.direct_bound inst);
           Printf.sprintf "%.3f" (SC.Proof.expected_exact inst);
           Printf.sprintf "%.3f" (SC.Proof.expected_theory inst);
           verdict (SC.Proof.liveness_holds inst) ])
    ctx.config.coin_cases;
  Table.print t;
  Printf.printf
    "\nThe adversary schedules but cannot bias the walk: at n=2 the \
     parity of the walk makes\nE[time] = B^2/n exact; elsewhere it is \
     exact up to sub-unit rounding.\n\n"

let e12_consensus ctx =
  ignore ctx;
  banner "E12"
    "fourth case study: Ben-Or consensus over asynchronous messages"
    "agreement and validity hold on every schedule/crash pattern; \
     unanimous starts decide in one round surely; mixed starts are \
     adversary-blockable per round but decide with prob >= 2^-n over two";
  let t =
    Table.create
      [ "instance"; "states"; "agreement"; "validity";
        "min P[decide <= 1 round]"; "min P[decide <= 2 rounds]";
        "capped liveness" ]
  in
  let row name inst rounds_two =
    let curve =
      BO.Proof.decision_curve inst
        ~rounds:(if rounds_two then [ 1; 2 ] else [ 1 ])
    in
    let fmt_q q = Q.to_string q in
    Table.row t
      [ name;
        string_of_int (Mdp.Explore.num_states inst.BO.Proof.expl);
        (match BO.Proof.agreement_violation inst with
         | None -> "OK" | Some _ -> "VIOLATED");
        (match BO.Proof.validity_violation inst with
         | None -> "OK" | Some _ -> "VIOLATED");
        fmt_q (List.nth curve 0);
        (if rounds_two then fmt_q (List.nth curve 1) else "-");
        verdict (BO.Proof.capped_liveness inst) ]
  in
  let unanimous =
    consensus_instance ~f:1 ~cap:1 ~initial:[| false; false; false |] 3
  in
  let mixed =
    consensus_instance ~f:1 ~cap:2 ~initial:[| false; false; true |] 3
  in
  row "n=3 f=1 unanimous (cap 1)" unanimous false;
  row "n=3 f=1 mixed (cap 2)" mixed true;
  Table.print t;
  Printf.printf
    "\nNote the deterministic-impossibility shadow: each single round is \
     adversary-blockable\n(min = 0), yet the coin defeats every schedule \
     across rounds (min = 1/8 = 2^-3).\nCapped liveness is rightly false \
     on mixed starts: termination is almost-sure only in\nthe round \
     limit, which the cap truncates.\n\n"

let e13_faults ctx =
  banner "E13" "graceful degradation under injected faults"
    "(not a paper claim: how the Sec. 6.2 constants decay as an exact \
     fault budget grows; 'release' = a crashed philosopher frees its \
     forks)";
  let t =
    Table.create
      [ "faults"; "release"; "states"; "arrow1 min"; "arrow2 min";
        "composed"; "direct 13-unit min" ]
  in
  let cases =
    [ (Faults.Fault.none, true);
      (Faults.Fault.v ~crash:1 (), true);
      (Faults.Fault.v ~crash:1 (), false) ]
    @ (if ctx.config.sweep_gk then
         [ (Faults.Fault.v ~loss:1 (), true);
           (Faults.Fault.v ~stuck:1 (), true);
           (Faults.Fault.v ~crash:1 ~loss:1 (), true) ]
       else [])
  in
  List.iter
    (fun (faults, release) ->
       let config =
         { Faults.Lr.params =
             { LR.Automaton.n = 3; g = ctx.config.lr_g; k = ctx.config.lr_k };
           faults; release }
       in
       let d = Faults.Lr.derive config in
       let composed =
         match d.Faults.Lr.composed with
         | Ok c ->
           Printf.sprintf "(%s, %s)"
             (Q.to_string (Core.Claim.time c))
             (Q.to_string (Core.Claim.prob c))
         | Error _ -> "FAILED"
       in
       Table.row t
         [ Faults.Fault.to_string faults; string_of_bool release;
           string_of_int d.Faults.Lr.states;
           Q.to_string d.Faults.Lr.arrow1.Faults.Lr.attained;
           Q.to_string d.Faults.Lr.arrow2.Faults.Lr.attained;
           composed; Q.to_string d.Faults.Lr.direct ])
    cases;
  Table.print t;
  Printf.printf
    "\nOne crash with fork release degrades T -13->_1/8 C to a (20, 3/4) \
     composed claim over the\nsurvivors; without release the adversary \
     crashes the philosopher holding both forks and\nevery bound \
     collapses to 0 -- the ring is locked.\n";
  (* The same story on Ben-Or, whose native f parameter is a crash
     budget: the round bounds survive f = 1 untouched because the
     protocol was designed for it. *)
  let t2 =
    Table.create
      [ "Ben-Or instance"; "states"; "min P[<=1 round]";
        "min P[<=2 rounds]" ]
  in
  List.iter
    (fun f ->
       let n = 3 in
       let inst = consensus_instance ~f ~cap:2 n in
       let curve = BO.Proof.decision_curve inst ~rounds:[ 1; 2 ] in
       Table.row t2
         [ Printf.sprintf "n=%d f=%d mixed" n f;
           string_of_int (Mdp.Explore.num_states inst.BO.Proof.expl);
           Q.to_string (List.nth curve 0);
           Q.to_string (List.nth curve 1) ])
    [ 0; 1 ];
  Table.print t2;
  (* Exercise the degradation ladder itself: a budget too small for the
     wrapped state space forces the Monte Carlo rung. *)
  let tiny = Core.Budget.v ~max_states:500 () in
  let config =
    { Faults.Lr.params =
        { LR.Automaton.n = 3; g = ctx.config.lr_g; k = ctx.config.lr_k };
      faults = Faults.Fault.v ~crash:1 (); release = true }
  in
  let verdict =
    Faults.Lr.check_budgeted ~budget:tiny ~seed:ctx.config.seed config
  in
  Format.printf "@.degradation ladder under a %s budget:@.  %a@.@."
    (Core.Budget.to_string tiny) Faults.Resilient.pp_verdict verdict

let guarded id f ctx =
  try f ctx with
  | Mdp.Explore.Too_many_states n ->
    Printf.printf
      "\n[%s skipped: exploration stopped after interning %d states; \
       shrink the profile or raise the state bound]\n" id n

let run_all ctx =
  guarded "E1" e1_arrows ctx;
  guarded "E2" e2_composed ctx;
  guarded "E3" e3_expected ctx;
  guarded "E4" e4_independence ctx;
  guarded "E5" e5_invariant ctx;
  guarded "E6" e6_baseline ctx;
  guarded "E7" e7_scaling ctx;
  guarded "E8" e8_lower_bound ctx;
  guarded "E9" e9_election ctx;
  guarded "E10" e10_topologies ctx;
  guarded "E11" e11_shared_coin ctx;
  guarded "E12" e12_consensus ctx;
  guarded "E13" e13_faults ctx
