(* Symmetry analysis (PA03x): the orbit quotient must be invisible in
   every verdict -- rational results bit-identical between --sym on and
   --sym off, fixed-horizon float results bit-identical too -- and the
   broken declarations must fire their diagnostics (PA030 for a
   non-automorphism, PA031 for a non-invariant predicate, PA032 as the
   unreduced-but-symmetric advisory). *)

module Q = Proba.Rational
module Sym = Analysis.Symmetry
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or

let q = Alcotest.testable (fun fmt r -> Format.pp_print_string fmt (Q.to_string r)) Q.equal

let claim_str = function
  | Ok c -> Format.asprintf "%a" Core.Claim.pp c
  | Error e -> "error: " ^ e

let has_code code diags =
  List.exists (fun d -> d.Analysis.Diagnostic.code = code) diags

let witnesses code diags =
  List.filter_map
    (fun d ->
       if d.Analysis.Diagnostic.code = code then d.Analysis.Diagnostic.witness
       else None)
    diags

let cert_exn = function
  | Some (c : Sym.certificate) -> c
  | None -> Alcotest.fail "expected a symmetry certificate"

(* Minimum over the states satisfying [pred] of the [ticks]-horizon
   float minimum reachability of [target] -- compared bitwise across
   the reduced/unreduced arenas (all probabilities are dyadic at these
   sizes, so the float plane is exact and order-insensitive). *)
let min_float_over arena ~pred ~target ~ticks =
  let values =
    Mdp.Finite_horizon.min_reach_float arena
      ~target:(Mdp.Arena.indicator arena target) ~ticks
  in
  let best = ref infinity in
  for i = 0 to Mdp.Arena.num_states arena - 1 do
    if Core.Pred.mem pred (Mdp.Arena.state arena i) && values.(i) < !best
    then best := values.(i)
  done;
  !best

let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Differential: reduced vs unreduced, all four case studies. *)

let test_lr_differential () =
  let off = LR.Proof.build ~n:3 () in
  let on = LR.Proof.build ~sym:Sym.On ~n:3 () in
  let cert = cert_exn on.LR.Proof.sym in
  Alcotest.(check bool) "quotient is smaller" true
    (Mdp.Arena.num_states on.LR.Proof.arena
     < Mdp.Arena.num_states off.LR.Proof.arena);
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.LR.Proof.arena)
    cert.Sym.full_states;
  List.iter2
    (fun (a : LR.Proof.arrow) (b : LR.Proof.arrow) ->
       Alcotest.check q ("attained " ^ a.LR.Proof.label)
         a.LR.Proof.attained b.LR.Proof.attained)
    (LR.Proof.arrows off) (LR.Proof.arrows on);
  Alcotest.(check string) "composed claim"
    (claim_str (LR.Proof.composed off))
    (claim_str (LR.Proof.composed on));
  Alcotest.check q "direct bound"
    (LR.Proof.direct_bound off) (LR.Proof.direct_bound on)

let test_lr_float_plane () =
  let off = LR.Proof.build ~n:3 () in
  let on = LR.Proof.build ~sym:Sym.On ~n:3 () in
  let run (inst : LR.Proof.instance) =
    min_float_over inst.LR.Proof.arena ~pred:LR.Regions.t
      ~target:LR.Regions.c
      ~ticks:(Core.Timed.within ~granularity:1 ~time:(Q.of_int 13))
  in
  Alcotest.(check int64) "13-unit float minimum, bitwise"
    (bits (run off)) (bits (run on))

let test_election_differential () =
  let off = IR.Proof.build ~n:3 () in
  let on = IR.Proof.build ~sym:Sym.On ~n:3 () in
  let cert = cert_exn on.IR.Proof.sym in
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.IR.Proof.arena)
    cert.Sym.full_states;
  List.iter2
    (fun (a : IR.Proof.arrow) (b : IR.Proof.arrow) ->
       Alcotest.check q ("attained " ^ a.IR.Proof.label)
         a.IR.Proof.attained b.IR.Proof.attained)
    (IR.Proof.arrows off) (IR.Proof.arrows on);
  Alcotest.(check string) "composed claim"
    (claim_str (IR.Proof.composed off))
    (claim_str (IR.Proof.composed on));
  Alcotest.check q "direct bound"
    (IR.Proof.direct_bound off) (IR.Proof.direct_bound on)

let test_coin_differential () =
  let off = SC.Proof.build ~n:2 ~bound:3 () in
  let on = SC.Proof.build ~sym:Sym.On ~n:2 ~bound:3 () in
  let cert = cert_exn on.SC.Proof.sym in
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.SC.Proof.arena)
    cert.Sym.full_states;
  List.iter2
    (fun (a : SC.Proof.arrow) (b : SC.Proof.arrow) ->
       Alcotest.check q ("attained " ^ a.SC.Proof.label)
         a.SC.Proof.attained b.SC.Proof.attained)
    (SC.Proof.arrows off) (SC.Proof.arrows on);
  Alcotest.(check string) "composed claim"
    (claim_str (SC.Proof.composed off))
    (claim_str (SC.Proof.composed on));
  Alcotest.check q "direct bound"
    (SC.Proof.direct_bound off) (SC.Proof.direct_bound on)

let test_consensus_differential () =
  let n = 3 and f = 1 and cap = 2 in
  let initial = Array.init n (fun i -> i = n - 1) in
  let off = BO.Proof.build ~n ~f ~cap ~initial () in
  let on = BO.Proof.build ~sym:Sym.On ~n ~f ~cap ~initial () in
  let cert = cert_exn on.BO.Proof.sym in
  Alcotest.(check int) "certificate counts the unreduced space"
    (Mdp.Arena.num_states off.BO.Proof.arena)
    cert.Sym.full_states;
  Alcotest.(check bool) "agreement holds on both" true
    (BO.Proof.agreement_violation off = None
     && BO.Proof.agreement_violation on = None);
  let rounds = List.init cap (fun r -> r + 1) in
  List.iter2
    (fun a b -> Alcotest.check q "decision curve point" a b)
    (BO.Proof.decision_curve off ~rounds)
    (BO.Proof.decision_curve on ~rounds)

(* ------------------------------------------------------------------ *)
(* Golden certificates: [certificate_to_json] of the --sym on instance
   of each case study (at the CLI's default parameters), pinned
   byte for byte.  The fingerprints hash every (member, generator) pair
   in check order, so a verifier that skips or reorders orbit members
   changes them. *)

let cert_json cert =
  Analysis.Json.to_string (Sym.certificate_to_json (cert_exn cert))

let golden_cases =
  [ ( "lr n=3",
      (fun () -> (LR.Proof.build ~sym:Sym.On ~n:3 ()).LR.Proof.sym),
      "{\"generators\":[{\"name\":\"perm(1 2 0)\",\
      \"fingerprint\":\"3edb01a6\"},{\"name\":\"perm(2 0 1)\",\
      \"fingerprint\":\"18e5d1e4\"}],\"states_checked\":8092,\
      \"full_states\":8092,\"reduced\":true,\"preds\":[\"T\",\
      \"C\",\"RT\",\"F\",\"P\",\"G\",\"P ∪ C\",\"RT ∪ C\",\"G\"]}" );
    ( "election n=3",
      (fun () -> (IR.Proof.build ~sym:Sym.On ~n:3 ()).IR.Proof.sym),
      "{\"generators\":[{\"name\":\"swap(0,1)\",\
      \"fingerprint\":\"185bb256\"},{\"name\":\"swap(1,2)\",\
      \"fingerprint\":\"298465c0\"}],\"states_checked\":60,\
      \"full_states\":60,\"reduced\":true,\
      \"preds\":[\"at most 1 active\",\"at most 2 active\",\
      \"at most 3 active\"]}" );
    ( "coin n=3 bound=4",
      (fun () -> (SC.Proof.build ~sym:Sym.On ~n:3 ~bound:4 ()).SC.Proof.sym),
      "{\"generators\":[{\"name\":\"swap(0,1)\",\
      \"fingerprint\":\"25e3836a\"},{\"name\":\"swap(1,2)\",\
      \"fingerprint\":\"171e3c86\"}],\"states_checked\":74,\
      \"full_states\":74,\"reduced\":true,\
      \"preds\":[\"|counter| >= 0\",\"|counter| >= 1\",\
      \"|counter| >= 2\",\"|counter| >= 3\",\"|counter| >= 4\"]}" );
    ( "consensus n=3 cap=2",
      (fun () ->
         let initial = Array.init 3 (fun i -> i = 2) in
         (BO.Proof.build ~sym:Sym.On ~n:3 ~f:1 ~cap:2 ~initial ()).BO.Proof.sym),
      "{\"generators\":[{\"name\":\"swap(0,1)\",\
      \"fingerprint\":\"05daded2\"}],\"states_checked\":16148,\
      \"full_states\":16148,\"reduced\":true,\"preds\":[\"Init\",\
      \"Decided\",\"Agreement\",\"Quiescent\"]}" ) ]

let test_golden_certs () =
  List.iter
    (fun (name, build, expected) ->
       Alcotest.(check string) name expected (cert_json (build ())))
    golden_cases

let test_golden_lr4 () =
  Alcotest.(check string) "lr n=4"
    "{\"generators\":[{\"name\":\"perm(1 2 3 0)\",\
    \"fingerprint\":\"3c7cb53e\"},{\"name\":\"perm(2 3 0 1)\",\
    \"fingerprint\":\"0020c752\"},{\"name\":\"perm(3 0 1 2)\",\
    \"fingerprint\":\"08cbc436\"}],\"states_checked\":162964,\
    \"full_states\":162964,\"reduced\":true,\"preds\":[\"T\",\
    \"C\",\"RT\",\"F\",\"P\",\"G\",\"P ∪ C\",\"RT ∪ C\",\"G\"]}"
    (cert_json (LR.Proof.build ~sym:Sym.On ~n:4 ()).LR.Proof.sym)

(* ------------------------------------------------------------------ *)
(* Fixtures that must fire. *)

(* A line topology has no nontrivial side-preserving automorphism, so a
   hand-declared "rotation" must be refuted by the verifier. *)
let broken_line_spec topo =
  let n = LR.Topology.num_procs topo in
  let r = LR.Topology.num_resources topo in
  let pi = Array.init n (fun i -> (i + 1) mod n) in
  let rho = Array.init r (fun j -> (j + 1) mod r) in
  Sym.spec
    [ Sym.generator ~name:"bogus-rotation"
        ~on_state:(LR.Symmetry.apply_state (pi, rho))
        ~on_action:(LR.Symmetry.apply_action pi) ]

let test_pa030_fires () =
  let topo = LR.Topology.line 3 in
  let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
  let expl = Mdp.Explore.run pa in
  let diags, cert =
    Sym.verify ~model:"lr-line-broken" (broken_line_spec topo) expl
  in
  Alcotest.(check (list string)) "PA030 witness"
    [ "steps([W←(c0,b1) R(c1,b1) R(c1,b1) | f f f f]) is not the \
       bogus-rotation-image of steps([R(c1,b1) R(c1,b1) W←(c0,b1) | f f f \
       f])" ]
    (witnesses Analysis.Diagnostic.PA030 diags);
  Alcotest.(check bool) "no certificate" true (cert = None)

let test_pa030_not_certified () =
  let topo = LR.Topology.line 3 in
  let pa = LR.Automaton.make_general ~topo ~g:1 ~k:1 in
  Alcotest.check_raises "sym=on refuses the broken declaration"
    (Match_failure ("", 0, 0)) (fun () ->
        try
          ignore
            (Sym.explored ~model:"lr-line-broken" ~mode:Sym.On
               (broken_line_spec topo) pa)
        with Sym.Not_certified _ -> raise (Match_failure ("", 0, 0)))

(* A predicate naming a specific process index is not invariant under
   the (verified) ring rotations. *)
let test_pa031_fires () =
  let pred0 s = s.LR.State.procs.(0).LR.State.region = LR.State.Crit in
  let spec = LR.Symmetry.ring ~extra:[ ("proc0-crit", pred0) ] ~n:3 () in
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let expl = Mdp.Explore.run pa in
  let diags, cert = Sym.verify ~model:"lr-proc0" spec expl in
  Alcotest.(check bool) "PA031 fired" true
    (has_code Analysis.Diagnostic.PA031 diags);
  Alcotest.(check bool) "PA030 clean" false
    (has_code Analysis.Diagnostic.PA030 diags);
  Alcotest.(check bool) "no certificate" true (cert = None);
  Alcotest.(check (list string)) "witness"
    [ "proc0-crit holds of [C(c1,b1) R(c1,b1) R(c1,b1) | t f t] but not \
       of its perm(1 2 0)-image [R(c1,b1) C(c1,b1) R(c1,b1) | t t f]" ]
    (witnesses Analysis.Diagnostic.PA031 diags);
  (* The orbit-expanded check finds it at another member pair. *)
  let canon = Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec in
  let diags, _ =
    Sym.verify ~model:"lr-proc0" ~reduced:true spec
      (Mdp.Explore.run ~canon pa)
  in
  Alcotest.(check (list string)) "witness on the quotient"
    [ "proc0-crit holds of [C(c1,b1) R(c1,b1) R(c1,b1) | t f t] but not \
       of its perm(2 0 1)-image [R(c1,b1) C(c1,b1) R(c1,b1) | t t f]" ]
    (witnesses Analysis.Diagnostic.PA031 diags)

(* A rotation of a 3-cycle that commutes with the steps at the orbit
   representative 0 but not at the other two members: the quotient
   holds the representative alone, so only checking every orbit
   member refutes the declaration. *)
module Skew = struct
  type action = A

  let next = function 0 -> 1 | 1 -> 2 | _ -> 1

  let pa =
    Core.Pa.make ~pp_state:Format.pp_print_int
      ~pp_action:(fun fmt A -> Format.pp_print_string fmt "a")
      ~start:[ 0; 1; 2 ]
      ~enabled:(fun s ->
          [ { Core.Pa.action = A; dist = Proba.Dist.point (next s) } ])
      ()

  let rot =
    Sym.generator ~name:"rot" ~on_state:(fun s -> (s + 1) mod 3)
      ~on_action:(fun (a : action) -> a)
end

let test_pa030_off_representative () =
  let spec = Sym.spec [ Skew.rot ] in
  Alcotest.(check int) "steps(rot 0) = rot(steps 0)"
    (Skew.rot.Sym.on_state (Skew.next 0))
    (Skew.next (Skew.rot.Sym.on_state 0));
  let expl =
    Mdp.Explore.run ~canon:(Sym.canonicalizer ~equal:Int.equal spec) Skew.pa
  in
  Alcotest.(check int) "one representative" 1 (Mdp.Explore.num_states expl);
  let diags, cert = Sym.verify ~model:"skew" ~reduced:true spec expl in
  Alcotest.(check bool) "no certificate" true (cert = None);
  Alcotest.(check (list string)) "witness"
    [ "steps(0) is not the rot-image of steps(2)" ]
    (witnesses Analysis.Diagnostic.PA030 diags)

(* Unreduced exploration of a certifiably symmetric model gets the
   advisory (with a certificate: the group itself verified fine). *)
let test_pa032_advisory () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let expl = Mdp.Explore.run pa in
  let diags, cert =
    Sym.verify ~model:"lr-unreduced" (LR.Symmetry.ring ~n:3 ()) expl
  in
  Alcotest.(check bool) "PA032 fired" true
    (has_code Analysis.Diagnostic.PA032 diags);
  (match
     List.find_opt
       (fun d -> d.Analysis.Diagnostic.code = Analysis.Diagnostic.PA032)
       diags
   with
   | Some d ->
     Alcotest.(check bool) "advisory severity is Info" true
       (d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Info)
   | None -> ());
  let cert = cert_exn cert in
  Alcotest.(check bool) "not a quotient" false cert.Sym.reduced;
  Alcotest.(check int) "full space = fragment" (Mdp.Explore.num_states expl)
    cert.Sym.full_states

(* ------------------------------------------------------------------ *)
(* Mechanics: orbits and canonicalizers. *)

let rot3 =
  Sym.generator ~name:"rot" ~on_state:(fun i -> (i + 1) mod 3)
    ~on_action:(fun () -> ())

let test_orbit () =
  let orbit = Sym.orbit ~equal:Int.equal [ rot3 ] 1 in
  Alcotest.(check (list int)) "orbit of 1 under +1 mod 3" [ 0; 1; 2 ]
    (List.sort compare orbit);
  Alcotest.(check (list int)) "newest member first" [ 0; 2; 1 ] orbit

let test_canonicalizer () =
  let canon = Sym.canonicalizer ~equal:Int.equal (Sym.spec [ rot3 ]) in
  Alcotest.(check (list int)) "every state maps to the orbit minimum"
    [ 0; 0; 0 ] (List.map canon [ 0; 1; 2 ]);
  let id = Sym.canonicalizer ~equal:Int.equal (Sym.spec []) in
  Alcotest.(check int) "no generators: identity" 7 (id 7)

let () =
  Alcotest.run "symmetry"
    [ ( "differential",
        [ Alcotest.test_case "lr rational plane" `Quick test_lr_differential;
          Alcotest.test_case "lr float plane (bitwise)" `Quick
            test_lr_float_plane;
          Alcotest.test_case "election rational plane" `Quick
            test_election_differential;
          Alcotest.test_case "coin rational plane" `Quick
            test_coin_differential;
          Alcotest.test_case "consensus rational plane" `Quick
            test_consensus_differential ] );
      ( "fixtures",
        [ Alcotest.test_case "PA030: rotation on a line" `Quick
          test_pa030_fires;
          Alcotest.test_case "PA030: sym=on raises" `Quick
            test_pa030_not_certified;
          Alcotest.test_case "PA031: process-pinned predicate" `Quick
            test_pa031_fires;
          Alcotest.test_case "PA030: off the representative" `Quick
            test_pa030_off_representative;
          Alcotest.test_case "PA032: unreduced advisory" `Quick
            test_pa032_advisory ] );
      ( "golden",
        [ Alcotest.test_case "certificates" `Quick test_golden_certs;
          Alcotest.test_case "lr n=4 certificate" `Slow test_golden_lr4 ] );
      ( "mechanics",
        [ Alcotest.test_case "orbit closure" `Quick test_orbit;
          Alcotest.test_case "canonicalizer" `Quick test_canonicalizer ] )
    ]
