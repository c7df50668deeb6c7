(* Arena snapshots (lib/snapshot): round-trips and refusals.

   Round-trips assert what docs/SNAPSHOTS.md promises: a loaded arena
   is bit-identical to the freshly compiled one on every plane -- the
   exact rational plane is serialized, the float plane is recomputed
   exactly as [Arena.compile] computes it, and the dyadic and interval
   planes rebuild from the exact plane -- so every engine verdict is
   byte-for-byte the same.  Refusals assert the strict-parser
   contract: version skew, truncation, a one-byte tamper, a
   fingerprint mismatch and a stale snapshot (rows or tick mask that
   the current model code does not derive) are all named errors, never
   a silently wrong arena. *)

module Q = Proba.Rational
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Store = Snapshot.Store
module Codec = Snapshot.Codec

let bits = Int64.bits_of_float

(* Bit-identical across all four probability planes, plus the
   structural arrays the engines traverse. *)
let check_arena (type s a) name ~(fresh : (s, a) Mdp.Arena.t)
    ~(loaded : (s, a) Mdp.Arena.t) =
  Alcotest.(check string)
    (name ^ ": fingerprint")
    (Mdp.Arena.fingerprint fresh)
    (Mdp.Arena.fingerprint loaded);
  Alcotest.(check int) (name ^ ": states") fresh.Mdp.Arena.n
    loaded.Mdp.Arena.n;
  Alcotest.(check int)
    (name ^ ": expanded")
    fresh.Mdp.Arena.expanded loaded.Mdp.Arena.expanded;
  Alcotest.(check bool)
    (name ^ ": CSR offsets")
    true
    (fresh.Mdp.Arena.step_off = loaded.Mdp.Arena.step_off
     && fresh.Mdp.Arena.out_off = loaded.Mdp.Arena.out_off
     && fresh.Mdp.Arena.tgt = loaded.Mdp.Arena.tgt
     && fresh.Mdp.Arena.tick = loaded.Mdp.Arena.tick);
  Alcotest.(check (list int))
    (name ^ ": start indices")
    (Mdp.Arena.start_indices fresh)
    (Mdp.Arena.start_indices loaded);
  Alcotest.(check bool)
    (name ^ ": exact plane")
    true
    (Array.for_all2 Q.equal fresh.Mdp.Arena.prob_q loaded.Mdp.Arena.prob_q);
  Alcotest.(check bool)
    (name ^ ": float plane")
    true
    (Array.for_all2
       (fun a b -> bits a = bits b)
       fresh.Mdp.Arena.prob_f loaded.Mdp.Arena.prob_f);
  Alcotest.(check bool)
    (name ^ ": dyadic plane")
    true
    (Array.for_all2 Proba.Dyadic.equal
       (Mdp.Arena.dyadic_plane fresh)
       (Mdp.Arena.dyadic_plane loaded));
  let flo, fhi = Mdp.Arena.interval_plane fresh in
  let llo, lhi = Mdp.Arena.interval_plane loaded in
  Alcotest.(check bool)
    (name ^ ": interval plane")
    true
    (Array.for_all2 (fun a b -> bits a = bits b) flo llo
     && Array.for_all2 (fun a b -> bits a = bits b) fhi lhi)

let claim_string = function
  | Ok c -> Format.asprintf "%a" Core.Claim.pp c
  | Error e -> "composition failed: " ^ e

(* The registry's instance for [config], and the same instance after an
   encode/decode round-trip. *)
let roundtrip config =
  let fresh = Models.get config in
  match Store.of_string (Store.encode config fresh) with
  | Ok (c, loaded) -> (fresh, c, loaded)
  | Error e -> Alcotest.failf "round-trip refused: %s" e

let lr_config = Models.config ~model:`Lr ~n:3 ()

let test_roundtrip_lr () =
  match roundtrip lr_config with
  | Models.Lr fresh, c, Models.Lr loaded ->
    Alcotest.(check string) "model" "lr" (Models.model_name c.Models.model);
    check_arena "lr" ~fresh:fresh.LR.Proof.arena ~loaded:loaded.LR.Proof.arena;
    Alcotest.(check string) "lr: composed claim"
      (claim_string (LR.Proof.composed fresh))
      (claim_string (LR.Proof.composed loaded));
    Alcotest.(check bool) "lr: Lemma 6.1" true
      (LR.Invariant.check loaded.LR.Proof.expl = None);
    Alcotest.(check (float 0.0)) "lr: max expected time"
      (LR.Proof.max_expected_time fresh)
      (LR.Proof.max_expected_time loaded)
  | _ -> Alcotest.fail "lr decoded to another model"

let test_roundtrip_lr_sym () =
  let config = { lr_config with Models.sym = Analysis.Symmetry.On } in
  match roundtrip config with
  | Models.Lr fresh, c, Models.Lr loaded ->
    Alcotest.(check bool) "sym mode survives" true
      (c.Models.sym = Analysis.Symmetry.On);
    (match loaded.LR.Proof.sym with
     | Some cert ->
       Alcotest.(check bool) "certificate still reduced" true
         cert.Analysis.Symmetry.reduced
     | None -> Alcotest.fail "symmetry certificate lost in round-trip");
    check_arena "lr-sym" ~fresh:fresh.LR.Proof.arena
      ~loaded:loaded.LR.Proof.arena;
    Alcotest.(check string) "lr-sym: composed claim"
      (claim_string (LR.Proof.composed fresh))
      (claim_string (LR.Proof.composed loaded))
  | _ -> Alcotest.fail "lr-sym decoded to another model"

let test_roundtrip_lr_line () =
  match roundtrip { lr_config with Models.topology = "line" } with
  | Models.Lr_topo fresh, _, Models.Lr_topo loaded ->
    check_arena "lr-line" ~fresh:fresh.LR.Proof.tarena
      ~loaded:loaded.LR.Proof.tarena;
    Alcotest.(check string) "lr-line: composed claim"
      (claim_string (LR.Proof.composed_topo fresh))
      (claim_string (LR.Proof.composed_topo loaded))
  | _ -> Alcotest.fail "lr-line decoded to another model"

let test_roundtrip_election () =
  match roundtrip (Models.config ~model:`Election ~n:3 ()) with
  | Models.Election fresh, _, Models.Election loaded ->
    check_arena "election" ~fresh:fresh.IR.Proof.arena
      ~loaded:loaded.IR.Proof.arena;
    Alcotest.(check string) "election: composed claim"
      (claim_string (IR.Proof.composed fresh))
      (claim_string (IR.Proof.composed loaded));
    Alcotest.(check (float 0.0)) "election: max expected time"
      (IR.Proof.max_expected_time fresh)
      (IR.Proof.max_expected_time loaded)
  | _ -> Alcotest.fail "election decoded to another model"

let test_roundtrip_coin () =
  match roundtrip (Models.config ~bound:3 ~model:`Coin ~n:2 ()) with
  | Models.Coin fresh, _, Models.Coin loaded ->
    check_arena "coin" ~fresh:fresh.SC.Proof.arena
      ~loaded:loaded.SC.Proof.arena;
    Alcotest.(check bool) "coin: direct bound" true
      (Q.equal (SC.Proof.direct_bound fresh) (SC.Proof.direct_bound loaded));
    Alcotest.(check (float 0.0)) "coin: exact expected time"
      (SC.Proof.expected_exact fresh)
      (SC.Proof.expected_exact loaded)
  | _ -> Alcotest.fail "coin decoded to another model"

let test_roundtrip_consensus () =
  let initial = [| false; false; true |] in
  let config = Models.config ~cap:2 ~f:1 ~initial ~model:`Consensus ~n:3 () in
  match roundtrip config with
  | Models.Consensus fresh, c, Models.Consensus loaded ->
    Alcotest.(check bool) "initial estimates survive" true
      (c.Models.initial = initial);
    check_arena "consensus" ~fresh:fresh.BO.Proof.arena
      ~loaded:loaded.BO.Proof.arena;
    Alcotest.(check bool) "consensus: agreement" true
      (BO.Proof.agreement_violation loaded = None);
    Alcotest.(check (list string)) "consensus: decision curve"
      (List.map Q.to_string
         (BO.Proof.decision_curve fresh ~rounds:[ 1; 2 ]))
      (List.map Q.to_string
         (BO.Proof.decision_curve loaded ~rounds:[ 1; 2 ]))
  | _ -> Alcotest.fail "consensus decoded to another model"

(* ----------------------------------------------------------------- *)
(* Refusals. *)

let contains ~sub s = Astring.String.is_infix ~affix:sub s

let refused name ~expect bytes =
  match Store.of_string bytes with
  | Ok _ -> Alcotest.failf "%s: accepted instead of refused" name
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error names the cause (%S in %S)" name expect e)
      true (contains ~sub:expect e)

let small_snapshot =
  lazy (Store.encode lr_config (Models.get lr_config))

let test_refuse_version_skew () =
  let bytes = Bytes.of_string (Lazy.force small_snapshot) in
  (* "prtba/1\n" -- the version digit is byte 6 *)
  Bytes.set bytes 6 '9';
  refused "version skew" ~expect:"version" (Bytes.to_string bytes)

let test_refuse_truncation () =
  let bytes = Lazy.force small_snapshot in
  refused "truncation" ~expect:"truncated"
    (String.sub bytes 0 (String.length bytes - 7));
  refused "empty" ~expect:"magic" ""

let test_refuse_tamper () =
  let original = Lazy.force small_snapshot in
  (* Flip the last digest hex character: the seal itself no longer
     matches the bytes it covers. *)
  let bytes = Bytes.of_string original in
  Bytes.set bytes (Bytes.length bytes - 1) 'x';
  refused "digest tamper" ~expect:"digest" (Bytes.to_string bytes);
  (* Flip one content byte mid-file (inside a section payload): the
     digest catches it.  Whatever frame the flip lands in, the result
     must be a refusal, never a quietly different arena. *)
  let bytes = Bytes.of_string original in
  let mid = Bytes.length bytes / 2 in
  Bytes.set bytes mid
    (Char.chr ((Char.code (Bytes.get bytes mid) + 1) land 0xff));
  (match Store.of_string (Bytes.to_string bytes) with
   | Ok _ -> Alcotest.fail "one-byte tamper accepted"
   | Error _ -> ())

let test_refuse_fingerprint_mismatch () =
  match Codec.decode (Lazy.force small_snapshot) with
  | Error e -> Alcotest.failf "decode of a good snapshot failed: %s" e
  | Ok sections ->
    (* A well-formed, correctly sealed container whose stored
       fingerprint disagrees with the arena the current code rebuilds
       -- the staleness surface, distinct from corruption. *)
    let sections =
      List.map
        (fun (name, payload) ->
           if name = "fingerprint" then
             (name, String.make (String.length payload) '0')
           else (name, payload))
        sections
    in
    refused "fingerprint mismatch" ~expect:"fingerprint"
      (Codec.encode sections)

(* A snapshot resealed under another instance's config: the coin n=2
   bound=4 arena (35 states) labelled bound=3.  The container is
   well-formed and correctly sealed, and its fingerprint matches its
   own arrays, so only re-deriving the rows from the bound=3 automaton
   (27 states) can tell that it describes a different object. *)
let rewrite_section name f bytes =
  match Codec.decode bytes with
  | Error e -> Alcotest.failf "decode of a good snapshot failed: %s" e
  | Ok sections ->
    Codec.encode
      (List.map
         (fun (n, payload) -> if n = name then (n, f payload) else (n, payload))
         sections)

let test_refuse_stale_config () =
  let config = Models.config ~bound:4 ~model:`Coin ~n:2 () in
  let bytes = Store.encode config (Models.get config) in
  let relabel payload =
    match Codec.strs_of_string payload with
    | Ok [ model; n; g; k; topology; "4"; cap; f; initial; sym ] ->
      Codec.strs_to_string
        [ model; n; g; k; topology; "3"; cap; f; initial; sym ]
    | Ok _ | Error _ -> Alcotest.fail "unexpected config section"
  in
  refused "config resealed as bound=3" ~expect:"stale"
    (rewrite_section "config" relabel bytes);
  Alcotest.(check int) "the real bound=3 instance is smaller" 27
    (Models.num_states (Models.get { config with Models.bound = 3 }))

(* The tick mask is re-derived from the model's classifier too. *)
let test_refuse_stale_tick () =
  let flip payload =
    match Codec.bools_of_string payload with
    | Ok tick ->
      tick.(0) <- not tick.(0);
      Codec.bools_to_string tick
    | Error e -> Alcotest.failf "tick section: %s" e
  in
  refused "tick mask flipped" ~expect:"stale"
    (rewrite_section "tick" flip (Lazy.force small_snapshot))

let test_load_missing_file () =
  match Store.load ~path:"/nonexistent/snapshot.prtba" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

let () =
  Alcotest.run "snapshot"
    [ ( "roundtrip",
        [ Alcotest.test_case "lr ring" `Quick test_roundtrip_lr;
          Alcotest.test_case "lr ring, sym=on" `Quick test_roundtrip_lr_sym;
          Alcotest.test_case "lr line" `Quick test_roundtrip_lr_line;
          Alcotest.test_case "election" `Quick test_roundtrip_election;
          Alcotest.test_case "coin" `Quick test_roundtrip_coin;
          Alcotest.test_case "consensus" `Quick test_roundtrip_consensus ] );
      ( "refusal",
        [ Alcotest.test_case "version skew" `Quick test_refuse_version_skew;
          Alcotest.test_case "truncation" `Quick test_refuse_truncation;
          Alcotest.test_case "one-byte tamper" `Quick test_refuse_tamper;
          Alcotest.test_case "fingerprint mismatch" `Quick
            test_refuse_fingerprint_mismatch;
          Alcotest.test_case "stale config" `Quick test_refuse_stale_config;
          Alcotest.test_case "stale tick mask" `Quick test_refuse_stale_tick;
          Alcotest.test_case "missing file" `Quick test_load_missing_file ] )
    ]
