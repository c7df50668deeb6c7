(* Tests for the Ben-Or consensus case study: the message-passing
   automaton (white box), the classical safety properties verified
   exhaustively, and the probabilistic termination bounds. *)

module Q = Proba.Rational
module BO = Ben_or
module Au = BO.Automaton

let rational = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rational

let params = { Au.n = 3; f = 1; cap = 1; g = 1; k = 1 }

let mixed = [| false; false; true |]
let unanimous = [| false; false; false |]

(* Shared instances: explored once. *)
let inst_unanimous =
  lazy (BO.Proof.build ~n:3 ~f:1 ~cap:1 ~initial:unanimous ())

let inst_mixed = lazy (BO.Proof.build ~n:3 ~f:1 ~cap:2 ~initial:mixed ())

(* ------------------------------------------------------------------ *)
(* Automaton white-box *)

let test_start () =
  let s = Au.start params mixed in
  Alcotest.(check int) "3 procs" 3 (Array.length s.Au.procs);
  Alcotest.(check bool) "all reporting" true
    (Array.for_all (fun p -> p.Au.stage = Au.To_report) s.Au.procs);
  Alcotest.(check bool) "no messages" true
    (Array.for_all (Array.for_all (( = ) None)) s.Au.reports);
  Alcotest.(check bool) "agreement vacuous" true (Au.agreement s);
  Alcotest.(check bool) "nobody decided" false (Au.some_decided s)

let test_bad_params () =
  Alcotest.(check bool) "n <= 2f rejected" true
    (try ignore (Au.make { params with Au.n = 2 }); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong initial size" true
    (try ignore (Au.start params [| true |]); false
     with Invalid_argument _ -> true)

let test_report_publishes () =
  let pa = Au.make ~initial:mixed params in
  let s = Au.start params mixed in
  let report2 =
    List.find
      (fun st -> st.Core.Pa.action = Au.Report 2)
      (Core.Pa.enabled pa s)
  in
  match Proba.Dist.is_point report2.Core.Pa.dist with
  | Some s' ->
    Alcotest.(check bool) "message recorded" true
      (s'.Au.reports.(0).(2) = Some true);
    Alcotest.(check bool) "stage advanced" true
      (s'.Au.procs.(2).Au.stage = Au.Sent_report)
  | None -> Alcotest.fail "report should be deterministic"

let test_collect_requires_quorum () =
  let pa = Au.make ~initial:mixed params in
  let s = Au.start params mixed in
  (* Only process 0 has reported: it cannot collect yet (needs 2). *)
  let s1 =
    match
      List.find
        (fun st -> st.Core.Pa.action = Au.Report 0)
        (Core.Pa.enabled pa s)
    with
    | { Core.Pa.dist; _ } -> Option.get (Proba.Dist.is_point dist)
  in
  Alcotest.(check bool) "no collect with one report" true
    (List.for_all
       (fun st ->
          match st.Core.Pa.action with
          | Au.Collect_reports _ -> false
          | _ -> true)
       (Core.Pa.enabled pa s1));
  (* After a second report, process 0 may collect; the subset must
     contain its own message. *)
  let s2 =
    match
      List.find
        (fun st -> st.Core.Pa.action = Au.Report 1)
        (Core.Pa.enabled pa s1)
    with
    | { Core.Pa.dist; _ } -> Option.get (Proba.Dist.is_point dist)
  in
  let collects =
    List.filter_map
      (fun st ->
         match st.Core.Pa.action with
         | Au.Collect_reports (0, subset) -> Some subset
         | _ -> None)
      (Core.Pa.enabled pa s2)
  in
  Alcotest.(check int) "one subset available" 1 (List.length collects);
  Alcotest.(check bool) "own message included" true
    (List.mem 0 (List.hd collects))

let test_crash_budget () =
  let pa = Au.make ~initial:mixed params in
  let s = Au.start params mixed in
  let crashes st =
    List.filter
      (fun x -> match x.Core.Pa.action with Au.Crash _ -> true | _ -> false)
      (Core.Pa.enabled pa st)
  in
  Alcotest.(check int) "three crash options" 3 (List.length (crashes s));
  (* Crash one process: no more crashes offered (f = 1). *)
  let crashed =
    match crashes s with
    | { Core.Pa.dist; _ } :: _ -> Option.get (Proba.Dist.is_point dist)
    | [] -> Alcotest.fail "expected a crash step"
  in
  Alcotest.(check int) "budget exhausted" 0 (List.length (crashes crashed))

let test_zeno_free () =
  let inst = Lazy.force inst_mixed in
  Alcotest.(check bool) "encoding is zeno-free" true
    (Mdp.Zeno.check inst.BO.Proof.arena = Mdp.Zeno.Ok)

(* ------------------------------------------------------------------ *)
(* Safety, exhaustively *)

let test_agreement () =
  Alcotest.(check bool) "agreement (unanimous instance)" true
    (BO.Proof.agreement_violation (Lazy.force inst_unanimous) = None);
  Alcotest.(check bool) "agreement (mixed instance, 2 rounds)" true
    (BO.Proof.agreement_violation (Lazy.force inst_mixed) = None)

let test_validity () =
  Alcotest.(check bool) "validity from all-zeros" true
    (BO.Proof.validity_violation (Lazy.force inst_unanimous) = None);
  Alcotest.(check bool) "vacuous on mixed" true
    (BO.Proof.validity_violation (Lazy.force inst_mixed) = None)

let test_state_counts () =
  Alcotest.(check int) "unanimous cap-1 space" 422
    (Mdp.Explore.num_states (Lazy.force inst_unanimous).BO.Proof.expl);
  Alcotest.(check int) "mixed cap-2 space" 16148
    (Mdp.Explore.num_states (Lazy.force inst_mixed).BO.Proof.expl)

(* ------------------------------------------------------------------ *)
(* Probabilistic termination *)

let test_fast_path_unanimous () =
  let a =
    BO.Proof.decision_arrow (Lazy.force inst_unanimous) ~rounds:1
      ~prob:Q.one
  in
  check_q "probability exactly 1" Q.one a.BO.Proof.attained;
  Alcotest.(check bool) "claim produced" true (a.BO.Proof.claim <> None);
  (match a.BO.Proof.claim with
   | Some c ->
     Alcotest.(check bool) "fully verified" true
       (Core.Claim.fully_verified c)
   | None -> ())

let test_round1_blockable_when_mixed () =
  (* The deterministic-impossibility shadow: for any single round the
     adversary has a schedule avoiding decision. *)
  let curve =
    BO.Proof.decision_curve (Lazy.force inst_mixed) ~rounds:[ 1 ]
  in
  check_q "round 1 forcible to 0" Q.zero (List.hd curve)

let test_two_rounds_give_an_eighth () =
  (* ... but the coin defeats every schedule across two rounds. *)
  let a =
    BO.Proof.decision_arrow (Lazy.force inst_mixed) ~rounds:2
      ~prob:(Q.of_ints 1 8)
  in
  check_q "attained exactly 2^-3" (Q.of_ints 1 8) a.BO.Proof.attained;
  Alcotest.(check bool) "claim produced" true (a.BO.Proof.claim <> None)

let test_capped_liveness () =
  Alcotest.(check bool) "unanimous decides surely" true
    (BO.Proof.capped_liveness (Lazy.force inst_unanimous));
  Alcotest.(check bool) "mixed can park at the cap" false
    (BO.Proof.capped_liveness (Lazy.force inst_mixed))

let test_simulation_unanimous () =
  (* Monte Carlo sanity: unanimous runs decide within one round under a
     random scheduler too. *)
  let pa = Au.make ~initial:unanimous params in
  let setup =
    { Sim.Monte_carlo.pa;
      scheduler = Sim.Scheduler.uniform pa;
      duration = Au.duration;
      start = Au.start params unanimous }
  in
  let prop =
    Sim.Monte_carlo.estimate_reach setup ~target:Au.some_decided ~within:3
      ~trials:300 ~seed:8
  in
  Alcotest.(check (float 1e-9)) "always decides" 1.0
    (Proba.Stat.Proportion.estimate prop)

let () =
  Alcotest.run "ben-or"
    [ ("automaton",
       [ Alcotest.test_case "start" `Quick test_start;
         Alcotest.test_case "bad params" `Quick test_bad_params;
         Alcotest.test_case "report publishes" `Quick test_report_publishes;
         Alcotest.test_case "collect needs quorum" `Quick
           test_collect_requires_quorum;
         Alcotest.test_case "crash budget" `Quick test_crash_budget;
         Alcotest.test_case "zeno-free" `Quick test_zeno_free ]);
      ("safety",
       [ Alcotest.test_case "agreement" `Quick test_agreement;
         Alcotest.test_case "validity" `Quick test_validity;
         Alcotest.test_case "state count pins" `Quick test_state_counts ]);
      ("termination",
       [ Alcotest.test_case "unanimous fast path" `Quick
           test_fast_path_unanimous;
         Alcotest.test_case "round 1 blockable" `Quick
           test_round1_blockable_when_mixed;
         Alcotest.test_case "two rounds: 1/8" `Quick
           test_two_rounds_give_an_eighth;
         Alcotest.test_case "capped liveness" `Quick test_capped_liveness;
         Alcotest.test_case "simulation agrees" `Quick
           test_simulation_unanimous ]) ]
