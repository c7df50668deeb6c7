module Q = Proba.Rational

type instance = {
  params : Automaton.params;
  expl : (State.t, Automaton.action) Mdp.Explore.t;
  arena : (State.t, Automaton.action) Mdp.Arena.t;
  sym : Analysis.Symmetry.certificate option;
}

let build ?max_states ?(g = 1) ?(k = 1) ?(sym = Analysis.Symmetry.Off) ~n
    () =
  let params = { Automaton.n; g; k } in
  let pa = Automaton.make params in
  let expl, cert =
    Analysis.Symmetry.explored ~model:"lr" ~mode:sym ?max_states
      (Symmetry.ring ~n ()) pa
  in
  { params; expl; sym = cert;
    arena = Mdp.Arena.compile ~is_tick:Automaton.is_tick expl }

type arrow = {
  label : string;
  pre : State.t Core.Pred.t;
  post : State.t Core.Pred.t;
  time : Q.t;
  prob : Q.t;
  attained : Q.t;
  pre_states : int;
  claim : State.t Core.Claim.t option;
}

let schema = Core.Schema.unit_time

(* ----------------------------------------------------------------- *)
(* The five arrows and their composition, over any compiled arena and
   any goodness predicate (the ring and the generalized topologies
   differ only in [G]). *)

let check_on arena ~granularity ~label ~pre ~post ~time ~prob =
  let result =
    Mdp.Checker.check_arrow arena ~granularity ~schema ~pre ~post ~time
      ~prob
  in
  { label; pre; post; time; prob;
    attained = result.Mdp.Checker.attained;
    pre_states = result.Mdp.Checker.pre_states;
    claim = result.Mdp.Checker.claim }

(* The five arrows, checked in proof order. *)
let arrows_on arena ~granularity ~g_pred =
  List.map
    (fun (label, pre, post, time, prob) ->
       check_on arena ~granularity ~label ~pre ~post ~time ~prob)
    [ ("A.1", Regions.p, Regions.c, Q.one, Q.one);
      ("A.3", Regions.t, Regions.rt_or_c, Q.of_int 2, Q.one);
      ( "A.15", Regions.rt,
        Core.Pred.union_all [ Regions.f; g_pred; Regions.p ],
        Q.of_int 3, Q.one );
      ("A.14", Regions.f, Core.Pred.union g_pred Regions.p, Q.of_int 2, Q.half);
      ("A.11", g_pred, Regions.p, Q.of_int 5, Q.of_ints 1 4) ]

(* Rename a claim's pre/post to set-equal predicates, certifying both
   inclusions over the reachable states. *)
let canonicalize arena claim ~pre ~post =
  let need name = function
    | Some incl -> incl
    | None ->
      failwith
        (Printf.sprintf "canonicalize: inclusion %s failed to verify" name)
  in
  let to_pre =
    need (Core.Pred.name pre)
      (Mdp.Checker.verify_inclusion arena pre (Core.Claim.pre claim))
  in
  let to_post =
    need (Core.Pred.name post)
      (Mdp.Checker.verify_inclusion arena (Core.Claim.post claim) post)
  in
  Core.Claim.weaken_post (Core.Claim.strengthen_pre claim to_pre) to_post

let compose_on arena ~g_pred arrows =
  let claim a =
    match a.claim with
    | Some c -> Ok c
    | None ->
      Error
        (Printf.sprintf
           "%s does not hold at the paper's bound: attained %s < %s"
           a.label (Q.to_string a.attained) (Q.to_string a.prob))
  in
  let a1, a3, a15, a14, a11 =
    match arrows with
    | [ a1; a3; a15; a14; a11 ] -> (a1, a3, a15, a14, a11)
    | _ ->
      invalid_arg "Proof.compose: expected the five arrows, in proof order"
  in
  let ( let* ) = Result.bind in
  let* a1 = claim a1 in
  let* a3 = claim a3 in
  let* a15 = claim a15 in
  let* a14 = claim a14 in
  let* a11 = claim a11 in
  (* The paper's ladder: pad each arrow with the already-reached set via
     Proposition 3.2, canonicalize the set names with verified
     inclusions, then chain with Theorem 3.4. *)
  let fgp_or_c =
    Core.Pred.union (Core.Pred.union_all [ Regions.f; g_pred; Regions.p ])
      Regions.c
  in
  let gp_or_c = Core.Pred.union (Core.Pred.union g_pred Regions.p) Regions.c in
  try
    let step1 = a3 in
    let step2 =
      canonicalize arena
        (Core.Claim.union a15 Regions.c)
        ~pre:Regions.rt_or_c ~post:fgp_or_c
    in
    let step3 =
      canonicalize arena
        (Core.Claim.union a14 gp_or_c)
        ~pre:fgp_or_c ~post:gp_or_c
    in
    let step4 =
      canonicalize arena
        (Core.Claim.union a11 Regions.p_or_c)
        ~pre:gp_or_c ~post:Regions.p_or_c
    in
    let step5 =
      canonicalize arena (Core.Claim.union a1 Regions.c) ~pre:Regions.p_or_c
        ~post:Regions.c
    in
    Ok (Core.Claim.compose_all [ step1; step2; step3; step4; step5 ])
  with Failure msg | Core.Claim.Rule_violation msg -> Error msg

let direct_bound_on arena ~granularity =
  let target = Mdp.Arena.indicator arena Regions.c in
  let ticks = Core.Timed.within ~granularity ~time:(Q.of_int 13) in
  let values = Mdp.Finite_horizon.min_reach arena ~target ~ticks in
  let best, _, _ = Mdp.Checker.min_prob_over arena values Regions.t in
  best

let max_expected_time_on arena ~granularity =
  let target = Mdp.Arena.indicator arena Regions.c in
  let values = Mdp.Expected_time.max_expected_ticks arena ~target () in
  let worst = ref 0.0 in
  for i = 0 to Mdp.Arena.num_states arena - 1 do
    if Core.Pred.mem Regions.t (Mdp.Arena.state arena i) then
      if values.(i) > !worst then worst := values.(i)
  done;
  !worst /. float_of_int granularity

let liveness_on arena =
  let target = Mdp.Arena.indicator arena Regions.c in
  let always = Mdp.Qualitative.always_reaches arena ~target in
  let ok = ref true in
  for i = 0 to Mdp.Arena.num_states arena - 1 do
    if Core.Pred.mem Regions.t (Mdp.Arena.state arena i)
    && not always.(i) then ok := false
  done;
  !ok

(* ----------------------------------------------------------------- *)
(* Ring interface. *)

let arrows inst =
  arrows_on inst.arena ~granularity:inst.params.Automaton.g
    ~g_pred:Regions.g

let compose inst arrows = compose_on inst.arena ~g_pred:Regions.g arrows
let composed inst = compose inst (arrows inst)

let direct_bound inst =
  direct_bound_on inst.arena ~granularity:inst.params.Automaton.g

let expected_bound () =
  let b prob time loops =
    Core.Expected.branch ~prob ~time:(Q.of_int time) ~loops
  in
  let v =
    Core.Expected.solve_loop ~label:"E[RT to P]"
      [ b (Q.of_ints 1 8) 10 false;
        b Q.half 5 true;
        b (Q.of_ints 3 8) 10 true ]
  in
  Core.Expected.sum ~label:"E[T to C]"
    [ Core.Expected.constant ~label:"T to RT (Prop A.3)" (Q.of_int 2);
      v;
      Core.Expected.constant ~label:"P to C (Prop A.1)" Q.one ]

let max_expected_time inst =
  max_expected_time_on inst.arena ~granularity:inst.params.Automaton.g

let worst_adversary inst =
  let arena = inst.arena in
  let target = Mdp.Arena.indicator arena Regions.c in
  let values, policy =
    Mdp.Expected_time.max_expected_ticks_with_policy arena ~target ()
  in
  let { Automaton.n; g; k } = inst.params in
  let start = State.all_trying ~n ~g ~k in
  let value =
    match Mdp.Arena.index arena start with
    | Some i -> values.(i) /. float_of_int g
    | None -> nan
  in
  let choose s =
    match Mdp.Arena.index arena s with
    | Some i -> Some policy.(i)
    | None -> None
  in
  (value, Sim.Scheduler.of_choice choose (Mdp.Arena.automaton arena))

let liveness_holds inst = liveness_on inst.arena

(* ----------------------------------------------------------------- *)
(* Generalized topologies (the paper's "more general than rings"). *)

type topo_instance = {
  topo : Topology.t;
  tg : int;
  tk : int;
  texpl : (State.t, Automaton.action) Mdp.Explore.t;
  tarena : (State.t, Automaton.action) Mdp.Arena.t;
  tsym : Analysis.Symmetry.certificate option;
}

let build_topo ?max_states ?(g = 1) ?(k = 1)
    ?(sym = Analysis.Symmetry.Off) ~topo () =
  let pa = Automaton.make_general ~topo ~g ~k in
  let texpl, cert =
    Analysis.Symmetry.explored
      ~model:(Printf.sprintf "lr:%s" (Topology.name topo))
      ~mode:sym ?max_states (Symmetry.spec topo) pa
  in
  { topo; tg = g; tk = k; texpl; tsym = cert;
    tarena = Mdp.Arena.compile ~is_tick:Automaton.is_tick texpl }

let arrows_topo inst =
  arrows_on inst.tarena ~granularity:inst.tg
    ~g_pred:(Regions.g_of inst.topo)

let compose_topo inst arrows =
  compose_on inst.tarena ~g_pred:(Regions.g_of inst.topo) arrows

let composed_topo inst = compose_topo inst (arrows_topo inst)

let direct_bound_topo inst = direct_bound_on inst.tarena ~granularity:inst.tg
let max_expected_time_topo inst =
  max_expected_time_on inst.tarena ~granularity:inst.tg
let invariant_topo inst = Invariant.check_general inst.topo inst.texpl
