(* Tests for the domain pool and for the determinism contract of the
   parallel analysis paths: exact engine outputs must be bit-identical
   for any number of domains, and Monte Carlo estimates bit-identical
   with and without a pool. *)

module P = Parallel.Pool
module Q = Proba.Rational
module LR = Lehmann_rabin
module BO = Ben_or

let rational = Alcotest.testable Q.pp Q.equal

(* Run [f] with a fresh pool of [domains], shutting it down afterwards
   even on failure. *)
let with_pool domains f =
  let pool = P.create ~domains in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool unit tests *)

let test_parallel_for_covers () =
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let n = 1003 in
           let hits = Array.make n 0 in
           P.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
           Alcotest.(check bool)
             (Printf.sprintf "each index once (%d domains)" domains)
             true
             (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_parallel_for_empty () =
  with_pool 2 (fun pool ->
      let ran = ref false in
      P.parallel_for pool ~n:0 (fun _ -> ran := true);
      Alcotest.(check bool) "no work for n = 0" false !ran)

let test_map_reduce_is_sequential_fold () =
  (* List append is associative but not commutative: any reordering of
     chunk results would be visible. *)
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let n = 257 in
           let got =
             P.map_reduce pool ~n ~combine:( @ ) ~init:[] (fun i -> [ i ])
           in
           Alcotest.(check (list int))
             (Printf.sprintf "in order (%d domains)" domains)
             (List.init n Fun.id) got))
    [ 1; 3; 4 ]

let test_map_reduce_sum () =
  with_pool 4 (fun pool ->
      let n = 10_000 in
      let sum =
        P.map_reduce pool ~n ~combine:( + ) ~init:0 (fun i -> i)
      in
      Alcotest.(check int) "gauss" (n * (n - 1) / 2) sum)

let test_map_reduce_chunking () =
  with_pool 2 (fun pool ->
      List.iter
        (fun chunks ->
           let got =
             P.map_reduce pool ~chunks ~n:10 ~combine:( @ ) ~init:[]
               (fun i -> [ i ])
           in
           Alcotest.(check (list int))
             (Printf.sprintf "chunks = %d" chunks)
             (List.init 10 Fun.id) got)
        [ 1; 2; 7; 10; 64 ])

let test_exception_propagates () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "worker failure resurfaces"
        (Failure "boom 57")
        (fun () ->
           P.parallel_for pool ~n:100 (fun i ->
               if i = 57 then failwith "boom 57")))

let test_stop_cancels () =
  with_pool 2 (fun pool ->
      let cancelled =
        try
          P.parallel_for pool ~stop:(fun () -> Some "budget") ~n:1000
            (fun _ -> ());
          None
        with P.Cancelled reason -> Some reason
      in
      Alcotest.(check (option string)) "cancelled with reason"
        (Some "budget") cancelled)

let test_shutdown_idempotent () =
  let pool = P.create ~domains:3 in
  Alcotest.(check int) "domains" 3 (P.domains pool);
  P.shutdown pool;
  P.shutdown pool

(* ------------------------------------------------------------------ *)
(* Determinism of the exact engines across domain counts.

   This is the acceptance property of the parallel subsystem: the
   rational (and dyadic) finite-horizon values computed with a pool are
   bit-identical -- structurally equal, not merely numerically equal --
   for every pool size, and numerically equal to the sequential
   schedule's fixpoint. *)

let lr_inst = lazy (LR.Proof.build ~n:3 ())

let bo_inst =
  lazy (BO.Proof.build ~n:3 ~f:1 ~cap:1 ~initial:[| false; false; true |] ())

let check_bit_identical name (seq : Q.t array) pooled =
  List.iter
    (fun (domains, (v : Q.t array)) ->
       Alcotest.(check int)
         (Printf.sprintf "%s: length (%d domains)" name domains)
         (Array.length seq) (Array.length v);
       Array.iteri
         (fun i x ->
            if not (x = v.(i)) then
              Alcotest.failf
                "%s: state %d differs at %d domains: %s vs %s" name i
                domains (Q.to_string x) (Q.to_string v.(i)))
         (snd (List.hd pooled)))
    pooled;
  (* Pooled Jacobi and sequential Gauss-Seidel reach the same exact
     fixpoint. *)
  Array.iteri
    (fun i x ->
       Alcotest.check rational
         (Printf.sprintf "%s: matches sequential at state %d" name i)
         x
         (snd (List.hd pooled)).(i))
    seq

let reach_all_pools name arena ~target ~ticks =
  let seq = Mdp.Finite_horizon.min_reach arena ~target ~ticks in
  let pooled =
    List.map
      (fun domains ->
         ( domains,
           with_pool domains (fun pool ->
               Mdp.Finite_horizon.min_reach ~pool arena ~target ~ticks) ))
      [ 1; 2; 4 ]
  in
  check_bit_identical name seq pooled

let test_lr_min_reach_bit_identical () =
  let inst = Lazy.force lr_inst in
  let arena = inst.LR.Proof.arena in
  reach_all_pools "LR min_reach" arena
    ~target:(Mdp.Arena.indicator arena LR.Regions.c)
    ~ticks:13

let test_ben_or_min_reach_bit_identical () =
  let inst = Lazy.force bo_inst in
  let arena = inst.BO.Proof.arena in
  let target =
    Mdp.Arena.indicator arena
      (Core.Pred.make "decided" BO.Automaton.some_decided)
  in
  reach_all_pools "Ben-Or min_reach" arena ~target ~ticks:3

let test_lr_max_reach_and_policy_pools () =
  let inst = Lazy.force lr_inst in
  let arena = inst.LR.Proof.arena in
  let target = Mdp.Arena.indicator arena LR.Regions.c in
  let seq = Mdp.Finite_horizon.max_reach arena ~target ~ticks:5 in
  with_pool 4 (fun pool ->
      let par =
        Mdp.Finite_horizon.max_reach ~pool arena ~target ~ticks:5
      in
      Array.iteri
        (fun i x ->
           Alcotest.check rational
             (Printf.sprintf "max_reach state %d" i)
             x par.(i))
        seq;
      let v1, p1 =
        Mdp.Finite_horizon.min_reach_with_policy ~pool arena ~target
          ~ticks:5
      in
      let v0, p0 =
        Mdp.Finite_horizon.min_reach_with_policy arena ~target ~ticks:5
      in
      Alcotest.(check bool) "policies agree" true (p0 = p1);
      Array.iteri
        (fun i x ->
           Alcotest.check rational
             (Printf.sprintf "policy values state %d" i)
             x v1.(i))
        v0)

let test_expected_time_pool_invariant () =
  (* Float results are bit-identical across pool sizes (same Jacobi
     schedule, same chunk grid); sequential Gauss-Seidel may differ in
     low-order bits and is not compared here. *)
  let inst = Lazy.force lr_inst in
  let arena = inst.LR.Proof.arena in
  let target = Mdp.Arena.indicator arena LR.Regions.c in
  let expected_at domains =
    with_pool domains (fun pool ->
        Mdp.Expected_time.max_expected_ticks ~pool arena ~target ())
  in
  let e1 = expected_at 1 and e4 = expected_at 4 in
  Alcotest.(check bool) "max_expected_ticks 1 = 4 domains" true (e1 = e4);
  (* And against the sequential schedule the fixpoints agree to the
     value-iteration tolerance. *)
  let eseq = Mdp.Expected_time.max_expected_ticks arena ~target () in
  Array.iteri
    (fun i x ->
       let y = e4.(i) in
       if Float.is_finite x || Float.is_finite y then
         Alcotest.(check bool)
           (Printf.sprintf "expected ticks close at state %d" i)
           true
           (Float.abs (x -. y) < 1e-6))
    eseq

(* ------------------------------------------------------------------ *)
(* Monte Carlo reproducibility *)

let mc_setup () =
  let inst = Lazy.force lr_inst in
  let pa = Mdp.Explore.automaton inst.LR.Proof.expl in
  { Sim.Monte_carlo.pa;
    scheduler = Sim.Scheduler.uniform pa;
    duration = LR.Automaton.duration;
    start = LR.State.all_trying ~n:3 ~g:1 ~k:1 }

let test_monte_carlo_pool_bit_identical () =
  let setup = mc_setup () in
  let target = Core.Pred.mem LR.Regions.c in
  let seq =
    Sim.Monte_carlo.estimate_reach setup ~target ~within:13 ~trials:400
      ~seed:42
  in
  List.iter
    (fun domains ->
       with_pool domains (fun pool ->
           let par =
             Sim.Monte_carlo.estimate_reach ~pool setup ~target ~within:13
               ~trials:400 ~seed:42
           in
           Alcotest.(check int)
             (Printf.sprintf "trials (%d domains)" domains)
             (Proba.Stat.Proportion.trials seq)
             (Proba.Stat.Proportion.trials par);
           Alcotest.(check int)
             (Printf.sprintf "successes (%d domains)" domains)
             (Proba.Stat.Proportion.successes seq)
             (Proba.Stat.Proportion.successes par)))
    [ 1; 4 ]

let test_monte_carlo_times_bit_identical () =
  let setup = mc_setup () in
  let target = Core.Pred.mem LR.Regions.c in
  let run pool =
    Sim.Monte_carlo.estimate_time ?pool setup ~target ~trials:300 ~seed:7 ()
  in
  let s_seq, missed_seq = run None in
  with_pool 4 (fun pool ->
      let s_par, missed_par = run (Some pool) in
      Alcotest.(check int) "missed" missed_seq missed_par;
      Alcotest.(check int) "count" (Proba.Stat.Summary.count s_seq)
        (Proba.Stat.Summary.count s_par);
      (* Welford replay in trial order: identical floats. *)
      Alcotest.(check bool) "mean bit-identical" true
        (Proba.Stat.Summary.mean s_seq = Proba.Stat.Summary.mean s_par);
      Alcotest.(check bool) "variance bit-identical" true
        (Proba.Stat.Summary.variance s_seq
         = Proba.Stat.Summary.variance s_par))

let test_monte_carlo_budgeted_counts () =
  let setup = mc_setup () in
  let target = Core.Pred.mem LR.Regions.c in
  (* Unlimited budget: the pooled path must run exactly the batched
     trial count the sequential path runs, with the same successes. *)
  let seq =
    Sim.Monte_carlo.estimate_reach_budgeted setup ~target ~within:13
      ~initial_trials:32 ~seed:5 ()
  in
  with_pool 4 (fun pool ->
      let par =
        Sim.Monte_carlo.estimate_reach_budgeted ~pool setup ~target
          ~within:13 ~initial_trials:32 ~seed:5 ()
      in
      Alcotest.(check int) "trials" seq.Sim.Monte_carlo.trials_run
        par.Sim.Monte_carlo.trials_run;
      Alcotest.(check int) "successes"
        (Proba.Stat.Proportion.successes seq.Sim.Monte_carlo.prop)
        (Proba.Stat.Proportion.successes par.Sim.Monte_carlo.prop);
      Alcotest.(check int) "batches" seq.Sim.Monte_carlo.batches
        par.Sim.Monte_carlo.batches)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "parallel_for covers" `Quick
           test_parallel_for_covers;
         Alcotest.test_case "parallel_for empty" `Quick
           test_parallel_for_empty;
         Alcotest.test_case "map_reduce ordered" `Quick
           test_map_reduce_is_sequential_fold;
         Alcotest.test_case "map_reduce sum" `Quick test_map_reduce_sum;
         Alcotest.test_case "map_reduce chunking" `Quick
           test_map_reduce_chunking;
         Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "stop cancels" `Quick test_stop_cancels;
         Alcotest.test_case "shutdown idempotent" `Quick
           test_shutdown_idempotent ]);
      ("determinism",
       [ Alcotest.test_case "LR min_reach bit-identical" `Quick
           test_lr_min_reach_bit_identical;
         Alcotest.test_case "Ben-Or min_reach bit-identical" `Quick
           test_ben_or_min_reach_bit_identical;
         Alcotest.test_case "max_reach and policy" `Quick
           test_lr_max_reach_and_policy_pools;
         Alcotest.test_case "expected time pool-invariant" `Quick
           test_expected_time_pool_invariant ]);
      ("monte-carlo",
       [ Alcotest.test_case "estimate_reach bit-identical" `Quick
           test_monte_carlo_pool_bit_identical;
         Alcotest.test_case "estimate_time bit-identical" `Quick
           test_monte_carlo_times_bit_identical;
         Alcotest.test_case "budgeted counts agree" `Quick
           test_monte_carlo_budgeted_counts ]) ]
