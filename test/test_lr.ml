(* Tests for the Lehmann-Rabin case study: the automaton's transition
   structure (white box), the region predicates, Lemma 6.1, the five
   phase statements at the paper's constants, their composition into
   T -13->_{1/8} C, and the expected-time derivation. *)

module Q = Proba.Rational
module LR = Lehmann_rabin
module St = LR.State
module Au = LR.Automaton

let rational = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check rational

let params = { Au.n = 3; g = 1; k = 1 }

(* Shared instance: explored once for the whole suite. *)
let inst = lazy (LR.Proof.build ~n:3 ())

(* A crafted state builder: regions with fresh clocks, resources derived
   from the regions per Lemma 6.1 (so crafted states are consistent). *)
let craft regions =
  let n = Array.length regions in
  let procs =
    Array.map (fun region -> { St.region; c = params.Au.g; b = params.Au.k })
      regions
  in
  let res =
    Array.init n (fun i ->
        St.holds regions.(i) St.R || St.holds regions.((i + 1) mod n) St.L)
  in
  { St.procs; res }

let actions_of steps =
  List.map (fun s -> s.Core.Pa.action) steps

(* ------------------------------------------------------------------ *)
(* State *)

let test_state_opp () =
  Alcotest.(check bool) "opp L" true (St.opp St.L = St.R);
  Alcotest.(check bool) "opp R" true (St.opp St.R = St.L)

let test_state_resource_index () =
  Alcotest.(check int) "right of 0" 0 (St.resource_index ~n:3 0 St.R);
  Alcotest.(check int) "left of 0" 2 (St.resource_index ~n:3 0 St.L);
  Alcotest.(check int) "left of 2" 1 (St.resource_index ~n:3 2 St.L);
  (* Neighbors share a resource: right of i = left of i+1. *)
  for i = 0 to 2 do
    Alcotest.(check int) "shared" (St.resource_index ~n:3 i St.R)
      (St.resource_index ~n:3 ((i + 1) mod 3) St.L)
  done

let test_state_holds () =
  Alcotest.(check bool) "W holds nothing" false (St.holds (St.Wait St.L) St.L);
  Alcotest.(check bool) "S holds its side" true
    (St.holds (St.Second St.R) St.R);
  Alcotest.(check bool) "S not other side" false
    (St.holds (St.Second St.R) St.L);
  Alcotest.(check bool) "P holds both" true
    (St.holds St.Pre St.L && St.holds St.Pre St.R);
  Alcotest.(check bool) "C holds both" true
    (St.holds St.Crit St.L && St.holds St.Crit St.R);
  Alcotest.(check bool) "EF holds both" true
    (St.holds St.Exit_f St.L && St.holds St.Exit_f St.R);
  Alcotest.(check bool) "ES holds kept side" true
    (St.holds (St.Exit_s St.L) St.L);
  Alcotest.(check bool) "ER holds nothing" false
    (St.holds St.Exit_r St.L || St.holds St.Exit_r St.R)

let test_state_ready () =
  Alcotest.(check bool) "R not ready" false (St.ready St.Rem);
  Alcotest.(check bool) "C not ready" false (St.ready St.Crit);
  List.iter
    (fun r -> Alcotest.(check bool) "ready" true (St.ready r))
    [ St.Flip; St.Wait St.L; St.Second St.R; St.Drop St.L; St.Pre;
      St.Exit_f; St.Exit_s St.R; St.Exit_r ]

let test_state_initial () =
  let s = St.initial ~n:3 ~g:1 ~k:1 in
  Alcotest.(check int) "3 procs" 3 (St.num_procs s);
  Alcotest.(check bool) "all remainder" true
    (Array.for_all (fun p -> p.St.region = St.Rem) s.St.procs);
  Alcotest.(check bool) "all free" true
    (Array.for_all not s.St.res);
  Alcotest.(check bool) "bad n rejected" true
    (try ignore (St.initial ~n:1 ~g:1 ~k:1); false
     with Invalid_argument _ -> true)

let test_state_all_trying () =
  let s = St.all_trying ~n:4 ~g:1 ~k:1 in
  Alcotest.(check bool) "all flip" true
    (Array.for_all (fun p -> p.St.region = St.Flip) s.St.procs);
  Alcotest.(check bool) "in T" true (Core.Pred.mem LR.Regions.t s);
  Alcotest.(check bool) "in RT" true (Core.Pred.mem LR.Regions.rt s);
  Alcotest.(check bool) "in F" true (Core.Pred.mem LR.Regions.f s)

(* [St.equal] compares field by field; it must be exactly structural
   equality.  Checked on every pair of n=3 reachable states, and on
   every rotation image of every state against each state it could
   structurally equal (those sharing its polymorphic hash).  The images
   are fresh copies, so the physical-equality short cut cannot answer
   for them. *)
let test_state_equal () =
  let expl = (Lazy.force inst).LR.Proof.expl in
  let states =
    Array.init (Mdp.Explore.num_states expl) (Mdp.Explore.state expl)
  in
  let by_hash = Hashtbl.create (Array.length states) in
  Array.iter (fun s -> Hashtbl.add by_hash (Hashtbl.hash s) s) states;
  let disagree = ref 0 and equal_pairs = ref 0 in
  let check a b =
    let expected = a = b in
    if expected then incr equal_pairs;
    if St.equal a b <> expected then incr disagree
  in
  Array.iter (fun a -> Array.iter (check a) states) states;
  let images = ref 0 in
  List.iter
    (fun perm ->
       Array.iter
         (fun s ->
            let a = LR.Symmetry.apply_state perm s in
            incr images;
            List.iter (check a) (Hashtbl.find_all by_hash (Hashtbl.hash a)))
         states)
    (LR.Topology.automorphisms (LR.Topology.ring 3));
  Alcotest.(check int) "St.equal agrees with ( = )" 0 !disagree;
  Alcotest.(check int) "equal pairs: one per state and one per image"
    (Array.length states + !images) !equal_pairs

(* ------------------------------------------------------------------ *)
(* Automaton transitions (white box) *)

let test_auto_start_enabled () =
  let s = St.initial ~n:3 ~g:1 ~k:1 in
  let acts = actions_of (Au.enabled params s) in
  (* Tick plus one try per process. *)
  Alcotest.(check int) "four steps" 4 (List.length acts);
  Alcotest.(check bool) "tick present" true (List.mem Au.Tick acts);
  for i = 0 to 2 do
    Alcotest.(check bool) "try present" true (List.mem (Au.Try i) acts)
  done

let test_auto_flip_distribution () =
  let s = craft [| St.Flip; St.Rem; St.Rem |] in
  let steps = Au.enabled params s in
  let flips =
    List.filter (fun st -> st.Core.Pa.action = Au.Flip 0) steps
  in
  match flips with
  | [ f ] ->
    let outcomes = Proba.Dist.support f.Core.Pa.dist in
    Alcotest.(check int) "two outcomes" 2 (List.length outcomes);
    List.iter
      (fun (target, w) ->
         check_q "fair coin" Q.half w;
         match target.St.procs.(0).St.region with
         | St.Wait _ -> ()
         | _ -> Alcotest.fail "flip must move to W")
      outcomes
  | _ -> Alcotest.fail "expected exactly one flip step"

let test_auto_wait_takes_free_resource () =
  let s = craft [| St.Wait St.R; St.Rem; St.Rem |] in
  let steps = Au.enabled params s in
  let wait = List.find (fun st -> st.Core.Pa.action = Au.Wait 0) steps in
  (match Proba.Dist.is_point wait.Core.Pa.dist with
   | Some target ->
     Alcotest.(check bool) "moved to S" true
       (target.St.procs.(0).St.region = St.Second St.R);
     Alcotest.(check bool) "resource taken" true target.St.res.(0)
   | None -> Alcotest.fail "wait should be deterministic")

let test_auto_wait_busy_waits () =
  (* Process 1 holds its left resource (Res 0), which is process 0's
     right resource. *)
  let s = craft [| St.Wait St.R; St.Second St.L; St.Rem |] in
  Alcotest.(check bool) "res 0 taken in crafted state" true s.St.res.(0);
  let steps = Au.enabled params s in
  let wait = List.find (fun st -> st.Core.Pa.action = Au.Wait 0) steps in
  (match Proba.Dist.is_point wait.Core.Pa.dist with
   | Some target ->
     Alcotest.(check bool) "still waiting" true
       (target.St.procs.(0).St.region = St.Wait St.R);
     Alcotest.(check int) "budget spent" 0 target.St.procs.(0).St.b
   | None -> Alcotest.fail "wait should be deterministic")

let test_auto_second_success_and_failure () =
  (* Success: nobody contests process 0's left resource. *)
  let s = craft [| St.Second St.R; St.Rem; St.Rem |] in
  let second =
    List.find (fun st -> st.Core.Pa.action = Au.Second 0) (Au.enabled params s)
  in
  (match Proba.Dist.is_point second.Core.Pa.dist with
   | Some target ->
     Alcotest.(check bool) "into P" true (target.St.procs.(0).St.region = St.Pre);
     Alcotest.(check bool) "both held" true
       (target.St.res.(0) && target.St.res.(2))
   | None -> Alcotest.fail "second should be deterministic");
  (* Failure: process 1 holds Res 2... wait, process 0's left resource
     is Res 2, held by process 2 pointing right. *)
  let s = craft [| St.Second St.R; St.Rem; St.Second St.R |] in
  Alcotest.(check bool) "res 2 contested" true s.St.res.(2);
  let second =
    List.find (fun st -> st.Core.Pa.action = Au.Second 0) (Au.enabled params s)
  in
  (match Proba.Dist.is_point second.Core.Pa.dist with
   | Some target ->
     Alcotest.(check bool) "into D" true
       (target.St.procs.(0).St.region = St.Drop St.R);
     Alcotest.(check bool) "first still held" true target.St.res.(0)
   | None -> Alcotest.fail "second should be deterministic")

let test_auto_drop_releases () =
  let s = craft [| St.Drop St.R; St.Rem; St.Rem |] in
  Alcotest.(check bool) "holding before drop" true s.St.res.(0);
  let drop =
    List.find (fun st -> st.Core.Pa.action = Au.Drop 0) (Au.enabled params s)
  in
  (match Proba.Dist.is_point drop.Core.Pa.dist with
   | Some target ->
     Alcotest.(check bool) "back to F" true
       (target.St.procs.(0).St.region = St.Flip);
     Alcotest.(check bool) "released" false target.St.res.(0)
   | None -> Alcotest.fail "drop should be deterministic")

let test_auto_exit_protocol () =
  let s = craft [| St.Exit_f; St.Rem; St.Rem |] in
  let steps = Au.enabled params s in
  let dropfs =
    List.filter
      (fun st ->
         match st.Core.Pa.action with Au.Drop_first (0, _) -> true | _ -> false)
      steps
  in
  (* The keep-side choice is the adversary's: two distinct steps. *)
  Alcotest.(check int) "two dropf steps" 2 (List.length dropfs);
  List.iter
    (fun st ->
       match st.Core.Pa.action, Proba.Dist.is_point st.Core.Pa.dist with
       | Au.Drop_first (_, keep), Some target ->
         Alcotest.(check bool) "into ES keep" true
           (target.St.procs.(0).St.region = St.Exit_s keep);
         let released = St.resource_index ~n:3 0 (St.opp keep) in
         let kept = St.resource_index ~n:3 0 keep in
         Alcotest.(check bool) "released opp" false target.St.res.(released);
         Alcotest.(check bool) "kept side" true target.St.res.(kept)
       | _ -> Alcotest.fail "unexpected dropf step")
    dropfs

let test_auto_tick_blocked_by_deadline () =
  let s = craft [| St.Flip; St.Rem; St.Rem |] in
  let expired =
    { s with St.procs =
               Array.mapi
                 (fun i p -> if i = 0 then { p with St.c = 0 } else p)
                 s.St.procs }
  in
  let acts = actions_of (Au.enabled params expired) in
  Alcotest.(check bool) "no tick when a deadline expired" false
    (List.mem Au.Tick acts);
  Alcotest.(check bool) "the forced step is available" true
    (List.mem (Au.Flip 0) acts)

let test_auto_budget_blocks_steps () =
  let s = craft [| St.Flip; St.Rem; St.Rem |] in
  let spent =
    { s with St.procs =
               Array.mapi
                 (fun i p -> if i = 0 then { p with St.b = 0 } else p)
                 s.St.procs }
  in
  let acts = actions_of (Au.enabled params spent) in
  Alcotest.(check bool) "flip blocked without budget" false
    (List.mem (Au.Flip 0) acts);
  Alcotest.(check bool) "tick still there" true (List.mem Au.Tick acts)

let test_auto_tick_refreshes () =
  let s = craft [| St.Flip; St.Rem; St.Rem |] in
  let spent =
    { s with St.procs =
               Array.mapi
                 (fun i p -> if i = 0 then { p with St.b = 0 } else p)
                 s.St.procs }
  in
  let tick =
    List.find (fun st -> st.Core.Pa.action = Au.Tick) (Au.enabled params spent)
  in
  (match Proba.Dist.is_point tick.Core.Pa.dist with
   | Some target ->
     Alcotest.(check int) "countdown decremented" 0 target.St.procs.(0).St.c;
     Alcotest.(check int) "budget refreshed" 1 target.St.procs.(0).St.b
   | None -> Alcotest.fail "tick should be deterministic")

let test_auto_external_actions () =
  Alcotest.(check bool) "try external" true (Au.is_external (Au.Try 0));
  Alcotest.(check bool) "crit external" true (Au.is_external (Au.Crit 0));
  Alcotest.(check bool) "exit external" true (Au.is_external (Au.Exit 0));
  Alcotest.(check bool) "rem external" true (Au.is_external (Au.Rem 0));
  Alcotest.(check bool) "flip internal" false (Au.is_external (Au.Flip 0));
  Alcotest.(check bool) "tick internal" false (Au.is_external Au.Tick);
  Alcotest.(check bool) "tick duration" true (Au.duration Au.Tick = 1);
  Alcotest.(check bool) "flip duration" true (Au.duration (Au.Flip 0) = 0)

(* ------------------------------------------------------------------ *)
(* Regions *)

let test_regions_t_c () =
  Alcotest.(check bool) "initial not in T" false
    (Core.Pred.mem LR.Regions.t (St.initial ~n:3 ~g:1 ~k:1));
  let s = craft [| St.Wait St.L; St.Rem; St.Rem |] in
  Alcotest.(check bool) "waiter in T" true (Core.Pred.mem LR.Regions.t s);
  Alcotest.(check bool) "no critical" false (Core.Pred.mem LR.Regions.c s);
  let s = craft [| St.Crit; St.Rem; St.Rem |] in
  Alcotest.(check bool) "critical in C" true (Core.Pred.mem LR.Regions.c s);
  Alcotest.(check bool) "critical not in T" false (Core.Pred.mem LR.Regions.t s)

let test_regions_rt () =
  let s = craft [| St.Wait St.L; St.Exit_r; St.Rem |] in
  Alcotest.(check bool) "ER allowed in RT" true (Core.Pred.mem LR.Regions.rt s);
  let s = craft [| St.Wait St.L; St.Exit_f; St.Rem |] in
  Alcotest.(check bool) "EF blocks RT" false (Core.Pred.mem LR.Regions.rt s);
  let s = craft [| St.Wait St.L; St.Crit; St.Rem |] in
  Alcotest.(check bool) "C blocks RT" false (Core.Pred.mem LR.Regions.rt s)

let test_regions_f_p () =
  let s = craft [| St.Flip; St.Rem; St.Rem |] in
  Alcotest.(check bool) "in F" true (Core.Pred.mem LR.Regions.f s);
  let s = craft [| St.Pre; St.Rem; St.Rem |] in
  Alcotest.(check bool) "in P" true (Core.Pred.mem LR.Regions.p s);
  Alcotest.(check bool) "P not in F" false (Core.Pred.mem LR.Regions.f s)

let test_regions_good () =
  (* Process 0 committed to the left; its right neighbor (process 1)
     does not potentially control Res 0: good. *)
  let s = craft [| St.Wait St.L; St.Flip; St.Rem |] in
  Alcotest.(check bool) "good" true (Core.Pred.mem LR.Regions.g s);
  Alcotest.(check (list int)) "witness is 0" [ 0 ]
    (LR.Regions.good_processes s);
  (* Now the right neighbor points left (controls Res 0): not good. *)
  let s = craft [| St.Wait St.L; St.Wait St.L; St.Rem |] in
  Alcotest.(check bool) "not good via 0" false
    (List.mem 0 (LR.Regions.good_processes s));
  (* ... but process 1 itself is: committed left, and process 2 is
     harmless. *)
  Alcotest.(check bool) "1 is good" true
    (List.mem 1 (LR.Regions.good_processes s));
  (* All committed toward each other in a cycle: nobody is good. *)
  let s = craft [| St.Wait St.L; St.Wait St.L; St.Wait St.L |] in
  Alcotest.(check (list int)) "symmetric wait cycle: none good" []
    (LR.Regions.good_processes s);
  Alcotest.(check bool) "not in G" false (Core.Pred.mem LR.Regions.g s)

let test_regions_good_drop_neighbor () =
  (* D pointing toward the contested resource blocks goodness. *)
  let s = craft [| St.Wait St.L; St.Drop St.L; St.Rem |] in
  Alcotest.(check bool) "drop neighbor pointing left blocks 0" false
    (List.mem 0 (LR.Regions.good_processes s));
  (* D pointing away is harmless. *)
  let s = craft [| St.Wait St.L; St.Drop St.R; St.Rem |] in
  Alcotest.(check bool) "drop pointing right is fine" true
    (List.mem 0 (LR.Regions.good_processes s))

(* ------------------------------------------------------------------ *)
(* Invariant (Lemma 6.1) *)

let test_invariant_exhaustive () =
  let inst = Lazy.force inst in
  Alcotest.(check bool) "Lemma 6.1 over all reachable states" true
    (LR.Invariant.check inst.LR.Proof.expl = None);
  Alcotest.(check bool) "neighbor exclusion" true
    (LR.Invariant.check_exclusion inst.LR.Proof.expl = None)

let test_invariant_detects_corruption () =
  let s = craft [| St.Second St.R; St.Rem; St.Rem |] in
  let corrupted = { s with St.res = Array.map not s.St.res } in
  Alcotest.(check bool) "corrupted state rejected" false
    (LR.Invariant.lemma_6_1 corrupted);
  Alcotest.(check bool) "crafted state fine" true (LR.Invariant.lemma_6_1 s)

let test_invariant_neighbor_crit () =
  let s = craft [| St.Crit; St.Rem; St.Rem |] in
  Alcotest.(check bool) "single critical ok" true
    (LR.Invariant.neighbors_exclusive s);
  (* Force two adjacent criticals (unreachable, crafted directly). *)
  let bad =
    { s with
      St.procs =
        Array.map (fun p -> { p with St.region = St.Crit }) s.St.procs }
  in
  Alcotest.(check bool) "adjacent criticals detected" false
    (LR.Invariant.neighbors_exclusive bad)

(* ------------------------------------------------------------------ *)
(* Proof: the five arrows and their composition at n = 3 *)

let test_zeno_well_formed () =
  let inst = Lazy.force inst in
  Alcotest.(check bool) "digital-clock encoding is zeno-free" true
    (Mdp.Zeno.check inst.LR.Proof.arena = Mdp.Zeno.Ok)

let test_proof_state_count () =
  let inst = Lazy.force inst in
  (* Deterministic regression pin for the n=3, g=1, k=1 instance. *)
  Alcotest.(check int) "reachable states" 8092
    (Mdp.Explore.num_states inst.LR.Proof.expl)

let test_proof_arrows () =
  let inst = Lazy.force inst in
  let arrows = LR.Proof.arrows inst in
  Alcotest.(check int) "five arrows" 5 (List.length arrows);
  List.iter
    (fun a ->
       Alcotest.(check bool)
         (Printf.sprintf "%s holds (attained %s >= %s)" a.LR.Proof.label
            (Q.to_string a.LR.Proof.attained) (Q.to_string a.LR.Proof.prob))
         true
         (a.LR.Proof.claim <> None);
       Alcotest.(check bool) "attained is a probability" true
         (Q.is_probability a.LR.Proof.attained);
       Alcotest.(check bool) "nonempty pre" true (a.LR.Proof.pre_states > 0))
    arrows

let test_proof_arrow_minima () =
  (* Exact regression pins for the attained minima at n=3, g=1, k=1. *)
  let inst = Lazy.force inst in
  let attained label =
    let a =
      List.find (fun a -> a.LR.Proof.label = label) (LR.Proof.arrows inst)
    in
    a.LR.Proof.attained
  in
  check_q "A.1" Q.one (attained "A.1");
  check_q "A.3" Q.one (attained "A.3");
  check_q "A.15" Q.one (attained "A.15");
  check_q "A.14" Q.one (attained "A.14");
  check_q "A.11" Q.half (attained "A.11")

let test_proof_composed () =
  let inst = Lazy.force inst in
  match LR.Proof.composed inst with
  | Error e -> Alcotest.failf "composition failed: %s" e
  | Ok claim ->
    check_q "time 13" (Q.of_int 13) (Core.Claim.time claim);
    check_q "prob 1/8" (Q.of_ints 1 8) (Core.Claim.prob claim);
    Alcotest.(check string) "from T" "T" (Core.Pred.name (Core.Claim.pre claim));
    Alcotest.(check string) "to C" "C" (Core.Pred.name (Core.Claim.post claim));
    Alcotest.(check bool) "machine checked end to end" true
      (Core.Claim.fully_verified claim)

(* The claim and its whole derivation, or the error. *)
let derivation = function
  | Ok c ->
    Format.asprintf "%a@.%a" Core.Claim.pp c Core.Claim.pp_derivation c
  | Error e -> "error: " ^ e

(* [compose] reuses the arrows already checked; it must give exactly
   what [composed], which checks them again, gives. *)
let test_proof_compose_reuses_arrows () =
  let inst = Lazy.force inst in
  Alcotest.(check string) "ring"
    (derivation (LR.Proof.composed inst))
    (derivation (LR.Proof.compose inst (LR.Proof.arrows inst)));
  let star = LR.Proof.build_topo ~topo:(LR.Topology.star 3) () in
  Alcotest.(check string) "star"
    (derivation (LR.Proof.composed_topo star))
    (derivation (LR.Proof.compose_topo star (LR.Proof.arrows_topo star)))

(* A failing arrow is named in the words [composed] has always used,
   and the first failure in proof order wins. *)
let test_proof_compose_names_failure () =
  let inst = Lazy.force inst in
  let fail label =
    List.map (fun a ->
        if a.LR.Proof.label = label then
          { a with LR.Proof.claim = None; attained = Q.of_ints 1 8 }
        else a)
  in
  let arrows = LR.Proof.arrows inst in
  Alcotest.(check string) "A.11"
    "error: A.11 does not hold at the paper's bound: attained 1/8 < 1/4"
    (derivation (LR.Proof.compose inst (fail "A.11" arrows)));
  Alcotest.(check string) "A.3 before A.14"
    "error: A.3 does not hold at the paper's bound: attained 1/8 < 1"
    (derivation (LR.Proof.compose inst (fail "A.14" (fail "A.3" arrows))))

let test_proof_direct_bound () =
  let inst = Lazy.force inst in
  let direct = LR.Proof.direct_bound inst in
  check_q "exact direct bound at n=3" (Q.of_ints 15 16) direct;
  Alcotest.(check bool) "far above the paper's 1/8" true
    (Q.geq direct (Q.of_ints 1 8))

let test_proof_expected_bound () =
  let b = LR.Proof.expected_bound () in
  check_q "63 units" (Q.of_int 63) (Core.Expected.value b)

let test_proof_expected_measured () =
  let inst = Lazy.force inst in
  let measured = LR.Proof.max_expected_time inst in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f below the derived bound 63" measured)
    true
    (measured < 63.0);
  Alcotest.(check bool) "positive" true (measured > 1.0)

let test_proof_liveness () =
  let inst = Lazy.force inst in
  Alcotest.(check bool) "Zuck-Pnueli-style liveness" true
    (LR.Proof.liveness_holds inst)

(* ------------------------------------------------------------------ *)
(* Topologies (the paper's "more general than rings" extension) *)

let test_topology_constructors () =
  let ring = LR.Topology.ring 3 in
  Alcotest.(check int) "ring procs" 3 (LR.Topology.num_procs ring);
  Alcotest.(check int) "ring res" 3 (LR.Topology.num_resources ring);
  Alcotest.(check int) "ring right of 0" 0 (LR.Topology.res ring 0 St.R);
  Alcotest.(check int) "ring left of 0" 2 (LR.Topology.res ring 0 St.L);
  let line = LR.Topology.line 3 in
  Alcotest.(check int) "line res" 4 (LR.Topology.num_resources line);
  Alcotest.(check int) "line end contenders" 1
    (List.length (LR.Topology.contenders line 0));
  Alcotest.(check int) "line middle contenders" 2
    (List.length (LR.Topology.contenders line 1));
  let star = LR.Topology.star 4 in
  Alcotest.(check int) "star hub contenders" 4
    (List.length (LR.Topology.contenders star 0));
  Alcotest.(check int) "star leaf contenders" 1
    (List.length (LR.Topology.contenders star 1))

let test_topology_validation () =
  Alcotest.(check bool) "identical resources rejected" true
    (try
       ignore (LR.Topology.make ~name:"bad" ~num_resources:2 [| (0, 0); (0, 1) |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (LR.Topology.make ~name:"bad" ~num_resources:2 [| (0, 5); (0, 1) |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "single process rejected" true
    (try
       ignore (LR.Topology.make ~name:"bad" ~num_resources:2 [| (0, 1) |]);
       false
     with Invalid_argument _ -> true)

let test_topology_ring_equivalence () =
  (* The generalized automaton over Topology.ring n must agree with the
     ring automaton, and the generalized goodness with the ring one, on
     every reachable state. *)
  let inst = Lazy.force inst in
  let expl = inst.LR.Proof.expl in
  let topo = LR.Topology.ring 3 in
  let gen = Mdp.Explore.run (Au.make_general ~topo ~g:1 ~k:1) in
  Alcotest.(check int) "same state count" (Mdp.Explore.num_states expl)
    (Mdp.Explore.num_states gen);
  let g_gen = LR.Regions.g_of topo in
  for i = 0 to Mdp.Explore.num_states expl - 1 do
    let st = Mdp.Explore.state expl i in
    if Core.Pred.mem LR.Regions.g st <> Core.Pred.mem g_gen st then
      Alcotest.failf "goodness disagrees at %s"
        (Format.asprintf "%a" LR.State.pp st)
  done

let test_topology_line_star_arrows () =
  List.iter
    (fun topo ->
       let tinst = LR.Proof.build_topo ~topo () in
       Alcotest.(check bool)
         (LR.Topology.name topo ^ " invariant") true
         (LR.Proof.invariant_topo tinst = None);
       List.iter
         (fun a ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s holds" (LR.Topology.name topo)
                 a.LR.Proof.label)
              true (a.LR.Proof.claim <> None))
         (LR.Proof.arrows_topo tinst);
       (match LR.Proof.composed_topo tinst with
        | Ok claim ->
          check_q "composed prob" (Q.of_ints 1 8) (Core.Claim.prob claim)
        | Error e -> Alcotest.failf "composition failed: %s" e))
    [ LR.Topology.line 2; LR.Topology.star 2 ]

let test_worst_adversary_replay () =
  let inst = Lazy.force inst in
  let predicted, scheduler = LR.Proof.worst_adversary inst in
  Alcotest.(check bool) "prediction positive and below 63" true
    (predicted > 1.0 && predicted < 63.0);
  let setup =
    { Sim.Monte_carlo.pa = Mdp.Explore.automaton inst.LR.Proof.expl;
      scheduler;
      duration = Au.duration;
      start = St.all_trying ~n:3 ~g:1 ~k:1 }
  in
  let summary, missed =
    Sim.Monte_carlo.estimate_time setup ~target:(Core.Pred.mem LR.Regions.c)
      ~trials:2000 ~seed:77 ()
  in
  Alcotest.(check int) "no missed" 0 missed;
  let mean = Proba.Stat.Summary.mean summary in
  Alcotest.(check bool)
    (Printf.sprintf "simulation %.3f matches prediction %.3f" mean predicted)
    true
    (Float.abs (mean -. predicted) < 0.35)

let random_topology seed =
  (* 2-3 processes over 3-4 resources, arbitrary distinct pairs. *)
  let rng = Proba.Rng.create ~seed in
  let num_res = 3 + Proba.Rng.int rng 2 in
  let n = 2 + Proba.Rng.int rng 2 in
  let assignments =
    Array.init n (fun _ ->
        let l = Proba.Rng.int rng num_res in
        let r = (l + 1 + Proba.Rng.int rng (num_res - 1)) mod num_res in
        (l, r))
  in
  LR.Topology.make ~name:(Printf.sprintf "random(%d)" seed)
    ~num_resources:num_res assignments

let prop_random_topologies_sound =
  (* The protocol runs on ANY two-resource conflict topology: the
     generalized resource invariant holds exhaustively, the encoding is
     zeno-free, and the deterministic arrows A.1/A.3 keep their paper
     constants. *)
  QCheck.Test.make ~name:"random topologies: invariant + A.1 + A.3"
    ~count:6 (QCheck.int_range 0 10_000) (fun seed ->
        let topo = random_topology seed in
        let tinst = LR.Proof.build_topo ~max_states:400_000 ~topo () in
        let arrows = LR.Proof.arrows_topo tinst in
        let holds label =
          match List.find_opt (fun a -> a.LR.Proof.label = label) arrows with
          | Some a -> a.LR.Proof.claim <> None
          | None -> false
        in
        LR.Proof.invariant_topo tinst = None
        && Mdp.Zeno.check tinst.LR.Proof.tarena = Mdp.Zeno.Ok
        && holds "A.1" && holds "A.3")

(* ------------------------------------------------------------------ *)
(* Schedulers (simulation smoke tests at n = 4, beyond the checker) *)

let sim_setup ~n scheduler_of =
  let params = { Au.n; g = 1; k = 1 } in
  let pa = Au.make params in
  { Sim.Monte_carlo.pa;
    scheduler = scheduler_of pa;
    duration = Au.duration;
    start = St.all_trying ~n ~g:1 ~k:1 }

let test_schedulers_reach_critical () =
  List.iter
    (fun (name, setup) ->
       let prop =
         Sim.Monte_carlo.estimate_reach setup
           ~target:(Core.Pred.mem LR.Regions.c)
           ~within:26 ~trials:300 ~seed:7
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s mostly reaches C within 26" name)
         true
         (Proba.Stat.Proportion.estimate prop > 0.5))
    [ ("uniform", sim_setup ~n:4 LR.Schedulers.uniform);
      ("eager", sim_setup ~n:4 LR.Schedulers.eager);
      ("delayer", sim_setup ~n:4 LR.Schedulers.delayer);
      ("starver", sim_setup ~n:4 LR.Schedulers.starver);
      ("round-robin", sim_setup ~n:4 LR.Schedulers.round_robin) ]

let test_scheduler_of_ranks () =
  let params = { Au.n = 3; g = 1; k = 1 } in
  let pa = Au.make params in
  (* A table that prefers ticking reproduces the delayer's behavior on
     the first decision. *)
  let delay_table = Array.make LR.Schedulers.num_classes 5 in
  delay_table.(0) <- 0;
  let sched = LR.Schedulers.of_ranks pa delay_table in
  let rng = Proba.Rng.create ~seed:31 in
  (match sched rng (Core.Exec.initial (St.all_trying ~n:3 ~g:1 ~k:1)) with
   | Some step ->
     Alcotest.(check bool) "prefers tick" true
       (step.Core.Pa.action = Au.Tick)
   | None -> Alcotest.fail "expected a step");
  Alcotest.(check bool) "wrong size rejected" true
    (try
       let (_ : LR.Schedulers.t) = LR.Schedulers.of_ranks pa [| 1; 2 |] in
       false
     with Invalid_argument _ -> true)

let test_schedulers_expected_time_below_bound () =
  List.iter
    (fun (name, setup) ->
       let summary, missed =
         Sim.Monte_carlo.estimate_time setup
           ~target:(Core.Pred.mem LR.Regions.c)
           ~trials:300 ~seed:11 ~max_steps:100_000 ()
       in
       Alcotest.(check int) (name ^ ": no missed trials") 0 missed;
       Alcotest.(check bool)
         (Printf.sprintf "%s: mean %.2f below 63" name
            (Proba.Stat.Summary.mean summary))
         true
         (Proba.Stat.Summary.mean summary < 63.0))
    [ ("uniform", sim_setup ~n:4 LR.Schedulers.uniform);
      ("starver", sim_setup ~n:4 LR.Schedulers.starver) ]

let test_scheduler_paper_bound_on_simulation () =
  (* The composed claim promises >= 1/8 within 13 for every adversary:
     every simulated scheduler's estimate must clear it comfortably. *)
  List.iter
    (fun (name, setup) ->
       let prop =
         Sim.Monte_carlo.estimate_reach setup
           ~target:(Core.Pred.mem LR.Regions.c)
           ~within:13 ~trials:400 ~seed:23
       in
       let lo, _ = Proba.Stat.Proportion.wilson_ci prop in
       Alcotest.(check bool)
         (Printf.sprintf "%s clears 1/8 (low CI %.3f)" name lo)
         true (lo > 0.125))
    [ ("uniform", sim_setup ~n:4 LR.Schedulers.uniform);
      ("delayer", sim_setup ~n:4 LR.Schedulers.delayer);
      ("starver", sim_setup ~n:4 LR.Schedulers.starver) ]

let () =
  Alcotest.run "lehmann-rabin"
    [ ("state",
       [ Alcotest.test_case "opp" `Quick test_state_opp;
         Alcotest.test_case "resource index" `Quick test_state_resource_index;
         Alcotest.test_case "holds" `Quick test_state_holds;
         Alcotest.test_case "ready" `Quick test_state_ready;
         Alcotest.test_case "initial" `Quick test_state_initial;
         Alcotest.test_case "all_trying" `Quick test_state_all_trying;
         Alcotest.test_case "equal is structural" `Slow test_state_equal ]);
      ("automaton",
       [ Alcotest.test_case "start enabled" `Quick test_auto_start_enabled;
         Alcotest.test_case "flip distribution" `Quick
           test_auto_flip_distribution;
         Alcotest.test_case "wait takes free resource" `Quick
           test_auto_wait_takes_free_resource;
         Alcotest.test_case "wait busy-waits" `Quick test_auto_wait_busy_waits;
         Alcotest.test_case "second success/failure" `Quick
           test_auto_second_success_and_failure;
         Alcotest.test_case "drop releases" `Quick test_auto_drop_releases;
         Alcotest.test_case "exit protocol" `Quick test_auto_exit_protocol;
         Alcotest.test_case "tick blocked by deadline" `Quick
           test_auto_tick_blocked_by_deadline;
         Alcotest.test_case "budget blocks steps" `Quick
           test_auto_budget_blocks_steps;
         Alcotest.test_case "tick refreshes budget" `Quick
           test_auto_tick_refreshes;
         Alcotest.test_case "action signature" `Quick
           test_auto_external_actions ]);
      ("regions",
       [ Alcotest.test_case "T and C" `Quick test_regions_t_c;
         Alcotest.test_case "RT" `Quick test_regions_rt;
         Alcotest.test_case "F and P" `Quick test_regions_f_p;
         Alcotest.test_case "good processes" `Quick test_regions_good;
         Alcotest.test_case "good vs drop neighbor" `Quick
           test_regions_good_drop_neighbor ]);
      ("invariant",
       [ Alcotest.test_case "Lemma 6.1 exhaustive" `Quick
           test_invariant_exhaustive;
         Alcotest.test_case "detects corruption" `Quick
           test_invariant_detects_corruption;
         Alcotest.test_case "neighbor exclusion" `Quick
           test_invariant_neighbor_crit ]);
      ("proof",
       [ Alcotest.test_case "zeno-free encoding" `Quick
           test_zeno_well_formed;
         Alcotest.test_case "state count pin" `Quick test_proof_state_count;
         Alcotest.test_case "five arrows hold" `Quick test_proof_arrows;
         Alcotest.test_case "attained minima pins" `Quick
           test_proof_arrow_minima;
         Alcotest.test_case "composed T -13->_1/8 C" `Quick
           test_proof_composed;
         Alcotest.test_case "compose reuses the arrows" `Quick
           test_proof_compose_reuses_arrows;
         Alcotest.test_case "compose names the failing arrow" `Quick
           test_proof_compose_names_failure;
         Alcotest.test_case "direct bound 15/16" `Quick
           test_proof_direct_bound;
         Alcotest.test_case "expected bound 63" `Quick
           test_proof_expected_bound;
         Alcotest.test_case "measured expected below bound" `Quick
           test_proof_expected_measured;
         Alcotest.test_case "liveness baseline" `Quick test_proof_liveness ]);
      ("topology",
       [ Alcotest.test_case "constructors" `Quick
           test_topology_constructors;
         Alcotest.test_case "validation" `Quick test_topology_validation;
         Alcotest.test_case "ring equivalence" `Quick
           test_topology_ring_equivalence;
         Alcotest.test_case "line/star arrows" `Quick
           test_topology_line_star_arrows;
         Alcotest.test_case "worst adversary replay" `Quick
           test_worst_adversary_replay;
         QCheck_alcotest.to_alcotest prop_random_topologies_sound ]);
      ("schedulers",
       [ Alcotest.test_case "reach critical" `Quick
           test_schedulers_reach_critical;
         Alcotest.test_case "of_ranks" `Quick test_scheduler_of_ranks;
         Alcotest.test_case "expected time below bound" `Quick
           test_schedulers_expected_time_below_bound;
         Alcotest.test_case "paper bound on simulations" `Quick
           test_scheduler_paper_bound_on_simulation ]) ]
