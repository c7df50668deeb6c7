(* In-process replays for perfbench/run.py.

     replay.exe lr --n N --sym on|off --reps R
     replay.exe walk --seed S --seconds T --setups K --traced 0|1
     replay.exe service --sim-seeds A,B,... --traced 0|1
     replay.exe noop

   Each subcommand prints one JSON object on stdout.  Spans are taken
   only here, around calls into the libraries' public functions; the
   libraries themselves are not instrumented.  A span records its id,
   parent, name, start and end (seconds since the process origin) and,
   for served queries, a request id.  run.py turns spans into per-layer
   metrics and writes them out as a trace-event file. *)

module J = Analysis.Json
module Q = Proba.Rational
module LR = Lehmann_rabin

(* ------------------------------------------------------------------ *)
(* Spans. *)

let origin = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. origin

type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 0

let span ?(req = 0) name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        stack := List.tl !stack;
        spans := { id; parent; name; req; t0; t1 = now () } :: !spans)
  end

let spans_json () =
  J.Arr
    (List.rev_map
       (fun s ->
          J.Obj
            [ ("id", J.Int s.id); ("parent", J.Int s.parent);
              ("name", J.Str s.name); ("req", J.Int s.req);
              ("t0", J.Num s.t0); ("t1", J.Num s.t1) ])
       !spans)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let nums xs = J.Arr (List.map (fun x -> J.Num x) xs)

let plane_json () =
  let s = Mdp.Plane.stats () in
  J.Obj
    [ ("passes", J.Int s.Mdp.Plane.interval_passes);
      ("points", J.Int s.Mdp.Plane.point_states);
      ("residue", J.Int s.Mdp.Plane.residue_states);
      ("fallbacks", J.Int s.Mdp.Plane.exact_fallbacks) ]

let emit fields = print_endline (J.to_string (J.Obj fields))

(* ------------------------------------------------------------------ *)
(* Arguments: [--key value] pairs after the subcommand. *)

let args =
  let tbl = Hashtbl.create 8 in
  let rec go i =
    if i + 1 < Array.length Sys.argv then begin
      let k = Sys.argv.(i) in
      if String.length k > 2 && String.sub k 0 2 = "--" then
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2))
          Sys.argv.(i + 1);
      go (i + 2)
    end
  in
  go 2;
  tbl

let arg name default =
  Option.value (Hashtbl.find_opt args name) ~default

let int_arg name default = int_of_string (arg name (string_of_int default))
let float_arg name default = float_of_string (arg name (string_of_float default))

(* ------------------------------------------------------------------ *)
(* Counting wrappers (traced runs only). *)

(* The same automaton, with every call of its transition function
   counted. *)
let counting_pa pa calls =
  Core.Pa.make ~equal_state:(Core.Pa.equal_state pa)
    ~hash_state:(Core.Pa.hash_state pa)
    ~equal_action:(Core.Pa.equal_action pa)
    ~is_external:(Core.Pa.is_external pa) ~pp_state:(Core.Pa.pp_state pa)
    ~pp_action:(Core.Pa.pp_action pa) ~start:(Core.Pa.start pa)
    ~enabled:(fun s ->
        incr calls;
        Core.Pa.enabled pa s)
    ()

let timed_canon canon calls total s =
  incr calls;
  let t0 = Unix.gettimeofday () in
  let r = canon s in
  total := !total +. (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* lr: the call sequence of [prtb check lr -n N --sym on|off] (text
   format): [Models.lr] -> [LR.Proof.build] ([Analysis.Symmetry.explored]
   then [Mdp.Arena.compile]), then [LR.Invariant.check], [LR.Proof.arrows],
   [LR.Proof.composed] and its rendering, [LR.Proof.expected_bound],
   [LR.Proof.max_expected_time].  The registry's memo table is skipped
   (a one-query process always misses it). *)

let lr_once ~n ~sym ~traced =
  let enabled_calls = ref 0 in
  let verify_calls = ref 0 in
  let canon_calls = ref 0 in
  let canon_s = ref 0.0 in
  Mdp.Plane.reset_stats ();
  tracing := traced;
  let t0 = Unix.gettimeofday () in
  let out =
    span "replay" @@ fun () ->
    let params = { LR.Automaton.n; g = 1; k = 1 } in
    let pa, spec =
      span "model.make" (fun () ->
          let pa = LR.Automaton.make params in
          ( (if traced then counting_pa pa enabled_calls else pa),
            LR.Symmetry.ring ~n () ))
    in
    let expl, cert =
      if sym then begin
        let canon =
          span "symmetry.canonicalizer" (fun () ->
              Analysis.Symmetry.canonicalizer
                ~equal:(Core.Pa.equal_state pa) spec)
        in
        let canon =
          if traced then timed_canon canon canon_calls canon_s else canon
        in
        let expl = span "explore" (fun () -> Mdp.Explore.run ~canon pa) in
        let before = !enabled_calls in
        let cert =
          span "symmetry.verify" (fun () ->
              match
                Analysis.Symmetry.verify ~model:"lr" ~reduced:true spec expl
              with
              | _, Some c -> c
              | _, None -> failwith "lr: symmetry failed to certify")
        in
        verify_calls := !enabled_calls - before;
        (expl, Some cert)
      end
      else (span "explore" (fun () -> Mdp.Explore.run pa), None)
    in
    let arena =
      span "arena.compile" (fun () ->
          Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick expl)
    in
    let inst = { LR.Proof.params; expl; arena; sym = cert } in
    let invariant = span "engine.invariant" (fun () -> LR.Invariant.check expl) in
    let arrows = span "engine.arrows" (fun () -> LR.Proof.arrows inst) in
    let composed = span "engine.compose" (fun () -> LR.Proof.composed inst) in
    let rendered =
      span "claim.render" (fun () ->
          let claim =
            match composed with
            | Ok c ->
              ignore (Format.asprintf "%a" Core.Claim.pp_derivation c);
              Format.asprintf "%a" Core.Claim.pp c
            | Error e -> "composition failed: " ^ e
          in
          ignore
            (Format.asprintf "%a" Core.Expected.pp (LR.Proof.expected_bound ()));
          claim)
    in
    let worst =
      span "engine.expected" (fun () -> LR.Proof.max_expected_time inst)
    in
    (inst, invariant, arrows, rendered, worst)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let inst, invariant, arrows, rendered, worst = out in
  let plane = plane_json () in
  (* Calls [prtb check lr] (text) does not make: the /check body's
     direct bound and the /cert path's fingerprint.  Timed after the
     replay so the replay itself stays faithful. *)
  ignore (span "engine.direct" (fun () -> LR.Proof.direct_bound inst));
  ignore
    (span "arena.fingerprint" (fun () ->
         Mdp.Arena.fingerprint inst.LR.Proof.arena));
  tracing := false;
  let results =
    J.Obj
      [ ("states", J.Int (Mdp.Arena.num_states inst.LR.Proof.arena));
        ("branches", J.Int (Mdp.Explore.num_branches inst.LR.Proof.expl));
        ( "full_states",
          match inst.LR.Proof.sym with
          | Some c when c.Analysis.Symmetry.reduced ->
            J.Int c.Analysis.Symmetry.full_states
          | _ -> J.Null );
        ("invariant", J.Bool (invariant = None));
        ( "arrows",
          J.Arr
            (List.map
               (fun a ->
                  J.Obj
                    [ ("label", J.Str a.LR.Proof.label);
                      ("attained", J.Str (Q.to_string a.LR.Proof.attained));
                      ("holds", J.Bool (a.LR.Proof.claim <> None)) ])
               arrows) );
        ("composed", J.Str rendered);
        ("worst_expected", J.Str (Printf.sprintf "%.3f" worst)) ]
  in
  let counters =
    J.Obj
      [ ("canon_calls", J.Int !canon_calls); ("canon_s", J.Num !canon_s);
        ("enabled_calls", J.Int !verify_calls);
        ( "states_checked",
          J.Int
            (match inst.LR.Proof.sym with
             | Some c -> c.Analysis.Symmetry.states_checked
             | None -> 0) );
        ("plane", plane) ]
  in
  (wall, results, counters)

let run_lr () =
  let n = int_arg "n" 3 in
  let sym = arg "sym" "off" = "on" in
  let reps = int_arg "reps" 1 in
  Mdp.Plane.set_default Mdp.Plane.Interval;
  (* Untraced and traced replays alternate so drift hits both. *)
  let untraced = ref [] and traced = ref [] in
  let last = ref None in
  for _ = 1 to reps do
    let w, r, _ = lr_once ~n ~sym ~traced:false in
    untraced := w :: !untraced;
    spans := [];
    let w', r', c' = lr_once ~n ~sym ~traced:true in
    traced := w' :: !traced;
    if J.to_string r <> J.to_string r' then
      failwith "lr: traced and untraced replays disagree";
    last := Some (r', c')
  done;
  match !last with
  | None -> failwith "lr: --reps must be at least 1"
  | Some (results, counters) ->
    emit
      [ ("untraced_s", nums (List.rev !untraced));
        ("traced_s", nums (List.rev !traced));
        ("results", results); ("counters", counters);
        ("spans", spans_json ()) ]

(* ------------------------------------------------------------------ *)
(* walk: k biased walkers on 0..top under unit-time slots.  Each walker
   must step at least once and at most [budget] times per time unit
   (the adversary picks how often and in which order); a step moves it
   up with its own non-dyadic weight, down otherwise (clamped at 0); a
   walker at [top] stops.  Time passes (Tick) once every walker still
   below [top] has stepped.  Non-tick steps consume the slot budget, so
   there are no zero-time cycles.  The seed permutes which walker gets
   which (weight, start) pair, so every seed yields an isomorphic
   instance with a different labelling. *)

type wact = Wtick | Wstep of int

let walk_pairs = [| (Q.of_ints 1 3, 0); (Q.of_ints 2 5, 1); (Q.of_ints 3 7, 2) |]

let walk_walkers seed =
  let a = Array.copy walk_pairs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let walk_pa ~top ~budget walkers =
  let k = Array.length walkers in
  let enabled s =
    let steps = ref [] in
    for i = k - 1 downto 0 do
      let pos = s.(i) and used = s.(k + i) in
      if pos < top && used < budget then begin
        let moved p =
          let s' = Array.copy s in
          s'.(i) <- p;
          s'.(k + i) <- used + 1;
          s'
        in
        steps :=
          { Core.Pa.action = Wstep i;
            dist =
              Proba.Dist.bernoulli (fst walkers.(i)) (moved (pos + 1))
                (moved (Stdlib.max 0 (pos - 1))) }
          :: !steps
      end
    done;
    let can_tick = ref true in
    for i = 0 to k - 1 do
      if s.(i) < top && s.(k + i) = 0 then can_tick := false
    done;
    if !can_tick then begin
      let s' = Array.copy s in
      Array.fill s' k k 0;
      { Core.Pa.action = Wtick; dist = Proba.Dist.point s' } :: !steps
    end
    else !steps
  in
  let start = Array.append (Array.map snd walkers) (Array.make k 0) in
  Core.Pa.make ~start:[ start ] ~enabled ()

let walk_is_tick = function Wtick -> true | Wstep _ -> false

let walk_top = 4
let walk_budget = 2
let walk_ticks = 4

let walk_target =
  Core.Pred.make "Top" (fun s ->
      let hit = ref false in
      for i = 0 to Array.length walk_pairs - 1 do
        if s.(i) = walk_top then hit := true
      done;
      !hit)

(* One cold verification: generate, explore, compile, sweep. *)
let walk_once walkers =
  let pa =
    span "model.make" (fun () ->
        walk_pa ~top:walk_top ~budget:walk_budget walkers)
  in
  let expl = span "explore" (fun () -> Mdp.Explore.run pa) in
  let arena =
    span "arena.compile" (fun () -> Mdp.Arena.compile ~is_tick:walk_is_tick expl)
  in
  let target = Mdp.Arena.indicator arena walk_target in
  let hi, lo =
    span "engine.reach" (fun () ->
        ( Mdp.Finite_horizon.max_reach arena ~target ~ticks:walk_ticks,
          Mdp.Finite_horizon.min_reach arena ~target ~ticks:walk_ticks ))
  in
  (arena, target, hi, lo)

let run_walk () =
  let seed = int_arg "seed" 1 in
  let seconds = float_arg "seconds" 10.0 in
  let setups = int_arg "setups" 3 in
  let traced = arg "traced" "0" = "1" in
  Mdp.Plane.set_default Mdp.Plane.Interval;
  let walkers = walk_walkers seed in
  (* Set-up: generate the model and explore and compile it once;
     [setups] times first, then once more before each timed sample, so
     the set-up samples span the run as the timed ones do. *)
  let setup () =
    snd
      (timed (fun () ->
           let pa = walk_pa ~top:walk_top ~budget:walk_budget walkers in
           Mdp.Arena.compile ~is_tick:walk_is_tick (Mdp.Explore.run pa)))
  in
  let setup_s = ref (List.init setups (fun _ -> setup ())) in
  let samples = ref [] in
  let untraced = ref [] and traced_s = ref [] in
  let last = ref None in
  let t_start = Unix.gettimeofday () in
  if not traced then begin
    (* The timed loop: at least three cold verifications. *)
    while
      List.length !samples < 3 || Unix.gettimeofday () -. t_start < seconds
    do
      setup_s := setup () :: !setup_s;
      let r, dt = timed (fun () -> walk_once walkers) in
      samples := dt :: !samples;
      last := Some r
    done
  end
  else begin
    (* Untraced and traced pipelines alternate, twice each. *)
    for _ = 1 to 2 do
      let _, dt = timed (fun () -> walk_once walkers) in
      untraced := dt :: !untraced;
      spans := [];
      tracing := true;
      Mdp.Plane.reset_stats ();
      let r, dt = timed (fun () -> span "replay" (fun () -> walk_once walkers)) in
      tracing := false;
      traced_s := dt :: !traced_s;
      last := Some r
    done
  end;
  let plane = plane_json () in
  let arena, target, hi, lo = Option.get !last in
  (* Outside the timed region: the same sweep on the exact plane (its
     time is the base of the plane's ratio) and the pure-rational
     reference every default-plane value must equal. *)
  tracing := traced;
  let hi_x, lo_x =
    span "engine.reach_exact" (fun () ->
        ( Mdp.Finite_horizon.max_reach ~plane:Mdp.Plane.Exact arena ~target
            ~ticks:walk_ticks,
          Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Exact arena ~target
            ~ticks:walk_ticks ))
  in
  let hi_r, lo_r =
    span "check.reference" (fun () ->
        ( Mdp.Finite_horizon.max_reach_rational arena ~target ~ticks:walk_ticks,
          Mdp.Finite_horizon.min_reach_rational arena ~target ~ticks:walk_ticks ))
  in
  tracing := false;
  let mismatches = ref 0 in
  Array.iteri
    (fun i v ->
       if not (Q.equal v hi_r.(i) && Q.equal lo.(i) lo_r.(i)
               && Q.equal hi_x.(i) hi_r.(i) && Q.equal lo_x.(i) lo_r.(i))
       then incr mismatches)
    hi;
  let start = List.hd (Mdp.Arena.start_indices arena) in
  emit
    [ ("setup_s", nums !setup_s); ("samples_s", nums (List.rev !samples));
      ("untraced_s", nums (List.rev !untraced));
      ("traced_s", nums (List.rev !traced_s));
      ( "results",
        J.Obj
          [ ("states", J.Int (Mdp.Arena.num_states arena));
            ("branches", J.Int (Mdp.Arena.num_branches arena));
            ("mismatches", J.Int !mismatches);
            ("start_max", J.Str (Q.to_string hi.(start)));
            ("start_min", J.Str (Q.to_string lo.(start))) ] );
      ("counters", J.Obj [ ("plane", plane) ]);
      ("spans", spans_json ()) ]

(* ------------------------------------------------------------------ *)
(* service: the served cold set, warm hits and /simulate misses through
   [Server.Service.handle], in process, configured as [prtb serve]
   configures it by default. *)

let check_q model ~n ~bound ~cap =
  { Server.Protocol.model; n; g = 1; k = 1; topology = "ring"; bound; cap;
    max_states = None; sym = "off"; plane = "interval"; deadline_ms = None }

let cold_set =
  [ ("lr", check_q `Lr ~n:3 ~bound:4 ~cap:2);
    ("election", check_q `Election ~n:4 ~bound:4 ~cap:2);
    ("coin", check_q `Coin ~n:2 ~bound:4 ~cap:2);
    ("consensus", check_q `Consensus ~n:3 ~bound:4 ~cap:2) ]

let sim_q seed =
  Server.Protocol.Simulate
    { Server.Protocol.sim_model = `Lr; sim_n = 3; scheduler = "uniform";
      trials = 2000; seed; within = None; sim_deadline_ms = None }

let ok (r : Server.Service.reply) =
  if r.Server.Service.status <> 200 then
    failwith (Printf.sprintf "service: status %d" r.Server.Service.status)

let run_service () =
  let traced = arg "traced" "0" = "1" in
  let sim_seeds =
    List.map int_of_string (String.split_on_char ',' (arg "sim-seeds" "1"))
  in
  let cache_bytes = 64 * 1024 * 1024 in
  Models.set_capacity (Some cache_bytes);
  let svc =
    Server.Service.create
      { Server.Service.default_config with
        Server.Service.cache_bytes = Some cache_bytes }
  in
  Mdp.Plane.reset_stats ();
  tracing := traced;
  let req = ref 0 in
  let handle name q =
    incr req;
    let r, dt = timed (fun () -> span ~req:!req name (fun () -> Server.Service.handle svc q)) in
    ok r;
    dt
  in
  let (), cold_s =
    timed (fun () ->
        span "replay" (fun () ->
            List.iter
              (fun (_, q) ->
                 ignore (handle "service.cold_check" (Server.Protocol.Check q));
                 ignore (handle "service.cold_cert" (Server.Protocol.Cert q)))
              cold_set))
  in
  let plane = plane_json () in
  let reg = Models.stats () in
  let lr_q = List.assoc "lr" cold_set in
  let body, emit_s =
    timed (fun () -> span "cert.emit" (fun () -> Server.Service.cert_json lr_q))
  in
  let cert_text = J.to_string body in
  let cert_ok, verify_s =
    timed (fun () ->
        span "cert.verify" (fun () ->
            match Cert.Node.of_string cert_text with
            | Error _ -> false
            | Ok c -> Result.is_ok (Cert.Verify.run c)))
  in
  let check_body = Server.Service.check_json lr_q in
  let render_s =
    span "json.render" (fun () ->
        List.init 200 (fun _ ->
            snd (timed (fun () -> ignore (J.to_string check_body)))))
  in
  let hit_s =
    span "service.hit" (fun () ->
        List.init 2000 (fun _ ->
            handle "service.hit_one" (Server.Protocol.Check lr_q)))
  in
  let miss_s =
    span "service.miss" (fun () ->
        List.map (fun seed -> handle "service.miss_one" (sim_q seed)) sim_seeds)
  in
  (* The /simulate query's Monte Carlo alone. *)
  let sim_s =
    span "sim.estimate" (fun () ->
        List.map
          (fun seed ->
             let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
             let setup =
               { Sim.Monte_carlo.pa; scheduler = Sim.Scheduler.uniform pa;
                 duration = LR.Automaton.duration;
                 start = LR.State.all_trying ~n:3 ~g:1 ~k:1 }
             in
             snd
               (timed (fun () ->
                    ignore
                      (Sim.Monte_carlo.estimate_time setup
                         ~target:(Core.Pred.mem LR.Regions.c) ~trials:2000
                         ~seed ()))))
          sim_seeds)
  in
  tracing := false;
  emit
    [ ("cold_s", J.Num cold_s);
      ("cert_emit_s", J.Num emit_s); ("cert_verify_s", J.Num verify_s);
      ("cert_ok", J.Bool cert_ok);
      ("cert_bytes", J.Int (String.length cert_text));
      ("render_s", nums render_s); ("hit_s", nums hit_s);
      ("miss_s", nums miss_s); ("sim_s", nums sim_s);
      ("sim_trials", J.Int 2000);
      ( "counters",
        J.Obj
          [ ("plane", plane);
            ("explorations", J.Int reg.Models.explorations);
            ("compiles", J.Int reg.Models.compiles);
            ("builds", J.Int reg.Models.builds) ] );
      ("spans", spans_json ()) ]

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "lr" -> run_lr ()
  | "walk" -> run_walk ()
  | "service" -> run_service ()
  | "noop" -> emit []
  | other ->
    Printf.eprintf "replay: unknown subcommand %S (lr|walk|service|noop)\n"
      other;
    exit 2
