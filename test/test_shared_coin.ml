(* Tests for the shared-coin case study: the random-walk automaton, the
   composition ladder, and the classical bound^2 expected-time law. *)

module Q = Proba.Rational
module SC = Shared_coin
module Au = SC.Automaton

let rational = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rational

let params = { Au.n = 2; bound = 2; g = 1; k = 1 }

let test_start () =
  let s = Au.start params in
  Alcotest.(check int) "counter 0" 0 s.Au.counter;
  Alcotest.(check bool) "not decided" false (Au.decided params s);
  Alcotest.(check bool) "in at_least 0" true
    (Core.Pred.mem (Au.at_least params 0) s);
  Alcotest.(check bool) "not in at_least 1" false
    (Core.Pred.mem (Au.at_least params 1) s)

let test_flip_moves_counter () =
  let pa = Au.make params in
  let s = Au.start params in
  let flips =
    List.filter
      (fun st -> not (Au.is_tick st.Core.Pa.action))
      (Core.Pa.enabled pa s)
  in
  Alcotest.(check int) "two processes can flip" 2 (List.length flips);
  List.iter
    (fun st ->
       let outcomes = Proba.Dist.support st.Core.Pa.dist in
       Alcotest.(check int) "fair coin" 2 (List.length outcomes);
       List.iter
         (fun (t, w) ->
            check_q "weight 1/2" Q.half w;
            Alcotest.(check bool) "moved by one" true
              (abs t.Au.counter = 1))
         outcomes)
    flips

let test_decided_absorbs () =
  let pa = Au.make params in
  let decided_state =
    { Au.counter = 2; clocks = Array.make 2 (1, 1) }
  in
  match Core.Pa.enabled pa decided_state with
  | [ { Core.Pa.action = Au.Tick; dist } ] ->
    Alcotest.(check bool) "self loop" true
      (Proba.Dist.is_point dist = Some decided_state)
  | _ -> Alcotest.fail "decided states should only tick"

let test_deadline_forces_flip () =
  let pa = Au.make params in
  let s = { Au.counter = 0; clocks = [| (0, 1); (1, 1) |] } in
  let acts = List.map (fun st -> st.Core.Pa.action) (Core.Pa.enabled pa s) in
  Alcotest.(check bool) "tick blocked" false (List.mem Au.Tick acts);
  Alcotest.(check bool) "flip 0 available" true (List.mem (Au.Flip 0) acts)

let test_budget_blocks_flip () =
  let pa = Au.make params in
  let s = { Au.counter = 0; clocks = [| (1, 0); (1, 1) |] } in
  let acts = List.map (fun st -> st.Core.Pa.action) (Core.Pa.enabled pa s) in
  Alcotest.(check bool) "flip 0 blocked" false (List.mem (Au.Flip 0) acts);
  Alcotest.(check bool) "flip 1 available" true (List.mem (Au.Flip 1) acts);
  Alcotest.(check bool) "tick available" true (List.mem Au.Tick acts)

let test_validation () =
  Alcotest.(check bool) "bound 0 rejected" true
    (try ignore (Au.make { params with Au.bound = 0 }); false
     with Invalid_argument _ -> true)

let test_zeno_well_formed () =
  let inst = SC.Proof.build ~n:3 ~bound:3 () in
  Alcotest.(check bool) "encoding is zeno-free" true
    (Mdp.Zeno.check inst.SC.Proof.arena = Mdp.Zeno.Ok)

(* ------------------------------------------------------------------ *)
(* Proof *)

let test_rungs_hold () =
  List.iter
    (fun (n, bound) ->
       let inst = SC.Proof.build ~n ~bound () in
       List.iter
         (fun a ->
            Alcotest.(check bool)
              (Printf.sprintf "n=%d B=%d %s" n bound a.SC.Proof.label)
              true (a.SC.Proof.claim <> None);
            Alcotest.(check bool) "attained >= 1/2" true
              (Q.geq a.SC.Proof.attained Q.half))
         (SC.Proof.arrows inst))
    [ (2, 2); (2, 3); (3, 2) ]

let test_composed () =
  let inst = SC.Proof.build ~n:2 ~bound:3 () in
  match SC.Proof.composed inst with
  | Error e -> Alcotest.failf "composition failed: %s" e
  | Ok claim ->
    check_q "time B" (Q.of_int 3) (Core.Claim.time claim);
    check_q "prob 2^-B" (Q.of_ints 1 8) (Core.Claim.prob claim);
    Alcotest.(check bool) "verified" true (Core.Claim.fully_verified claim)

(* [compose] reuses the rungs already checked: the same claim and
   derivation as [composed], and a failing rung named in the words
   [composed] has always used. *)
let test_compose_reuses_arrows () =
  let inst = SC.Proof.build ~n:2 ~bound:3 () in
  let derivation = function
    | Ok c ->
      Format.asprintf "%a@.%a" Core.Claim.pp c Core.Claim.pp_derivation c
    | Error e -> "error: " ^ e
  in
  let arrows = SC.Proof.arrows inst in
  Alcotest.(check string) "same derivation"
    (derivation (SC.Proof.composed inst))
    (derivation (SC.Proof.compose inst arrows));
  let failed =
    List.map (fun a ->
        if a.SC.Proof.label = "D1" then
          { a with SC.Proof.claim = None; attained = Q.of_ints 1 8 }
        else a)
      arrows
  in
  Alcotest.(check string) "failing rung" "error: rung D1 failed"
    (derivation (SC.Proof.compose inst failed))

let test_composition_is_loose () =
  (* The direct bound dwarfs the composed 2^-B: the documented
     methodological finding. *)
  let inst = SC.Proof.build ~n:2 ~bound:3 () in
  let direct = SC.Proof.direct_bound inst in
  Alcotest.(check bool)
    (Printf.sprintf "direct %s >> 1/8" (Q.to_string direct))
    true
    (Q.gt direct (Q.of_ints 1 4))

let test_expected_square_law () =
  (* With n = 2 the walk's parity makes the bound^2 / n law exact. *)
  List.iter
    (fun bound ->
       let inst = SC.Proof.build ~n:2 ~bound () in
       let exact = SC.Proof.expected_exact inst in
       let theory = SC.Proof.expected_theory inst in
       Alcotest.(check (float 1e-6))
         (Printf.sprintf "B=%d: exactly B^2/2" bound)
         theory exact)
    [ 2; 4 ];
  (* Odd flip counts per unit introduce a bounded rounding excess. *)
  let inst = SC.Proof.build ~n:3 ~bound:3 () in
  let exact = SC.Proof.expected_exact inst in
  let theory = SC.Proof.expected_theory inst in
  Alcotest.(check bool)
    (Printf.sprintf "theory %.3f <= exact %.3f <= theory + 1" theory exact)
    true
    (exact >= theory -. 1e-9 && exact <= theory +. 1.0)

let test_liveness () =
  let inst = SC.Proof.build ~n:2 ~bound:3 () in
  Alcotest.(check bool) "decides almost surely" true
    (SC.Proof.liveness_holds inst)

let test_adversary_cannot_bias () =
  (* Min and max probability of deciding POSITIVE are equal (= 1/2 by
     symmetry): the adversary controls timing, never direction. *)
  let inst = SC.Proof.build ~n:2 ~bound:2 () in
  let expl = inst.SC.Proof.expl in
  let arena = inst.SC.Proof.arena in
  let plus =
    Core.Pred.make "decided +" (fun s -> s.Au.counter >= 2)
  in
  let target = Mdp.Explore.indicator expl plus in
  let horizon = 40 (* effectively unbounded for B=2 *) in
  let vmin = Mdp.Finite_horizon.min_reach arena ~target ~ticks:horizon in
  let vmax = Mdp.Finite_horizon.max_reach arena ~target ~ticks:horizon in
  let i = Option.get (Mdp.Explore.index expl (Au.start inst.SC.Proof.params)) in
  Alcotest.(check bool) "min close to 1/2" true
    (Q.to_float vmin.(i) > 0.499);
  Alcotest.(check bool) "max close to 1/2" true
    (Q.to_float vmax.(i) < 0.501)

let test_simulation_agrees () =
  let inst = SC.Proof.build ~n:2 ~bound:4 () in
  let pa = Mdp.Explore.automaton inst.SC.Proof.expl in
  let setup =
    { Sim.Monte_carlo.pa;
      scheduler = Sim.Scheduler.uniform pa;
      duration = Au.duration;
      start = Au.start inst.SC.Proof.params }
  in
  let summary, missed =
    Sim.Monte_carlo.estimate_time setup
      ~target:(Au.decided inst.SC.Proof.params) ~trials:2000 ~seed:3 ()
  in
  Alcotest.(check int) "no missed" 0 missed;
  let mean = Proba.Stat.Summary.mean summary in
  (* Uniform scheduling flips faster than the forced minimum, so the
     mean sits below the worst case 8 but above 8 / (k*g*n) rates...
     just sanity-check the window. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f in a plausible window" mean)
    true
    (mean > 2.0 && mean < 8.5)

let () =
  Alcotest.run "shared-coin"
    [ ("automaton",
       [ Alcotest.test_case "start" `Quick test_start;
         Alcotest.test_case "flips" `Quick test_flip_moves_counter;
         Alcotest.test_case "decided absorbs" `Quick test_decided_absorbs;
         Alcotest.test_case "deadline forces" `Quick
           test_deadline_forces_flip;
         Alcotest.test_case "budget blocks" `Quick test_budget_blocks_flip;
         Alcotest.test_case "validation" `Quick test_validation;
         Alcotest.test_case "zeno-free" `Quick test_zeno_well_formed ]);
      ("proof",
       [ Alcotest.test_case "rungs hold" `Quick test_rungs_hold;
         Alcotest.test_case "composed (B, 2^-B)" `Quick test_composed;
         Alcotest.test_case "compose reuses the rungs" `Quick
           test_compose_reuses_arrows;
         Alcotest.test_case "composition is loose" `Quick
           test_composition_is_loose;
         Alcotest.test_case "B^2 law" `Quick test_expected_square_law;
         Alcotest.test_case "liveness" `Quick test_liveness;
         Alcotest.test_case "adversary cannot bias" `Quick
           test_adversary_cannot_bias;
         Alcotest.test_case "simulation agrees" `Quick
           test_simulation_agrees ]) ]
