module Sym = Analysis.Symmetry

(* ------------------------------------------------------------------ *)
(* Encoding. *)

let config_payload (c : Models.config) =
  Codec.strs_to_string
    [ Models.model_name c.model; string_of_int c.n; string_of_int c.g;
      string_of_int c.k;
      c.topology; string_of_int c.bound; string_of_int c.cap;
      string_of_int c.f;
      Codec.bools_to_string c.initial;
      Sym.mode_to_string c.sym ]

(* The arena's own arrays, the interned states of its fragment and the
   symmetry certificate, each as a named section.  States and actions
   are pure data in every case study (records, variants and arrays of
   both -- no closures), so [Marshal] round-trips them exactly; the
   container digest seals the blobs, so [Marshal.from_string] only ever
   sees bytes this module wrote. *)
let arena_sections (type s a) (arena : (s, a) Mdp.Arena.t)
    (cert : Sym.certificate option) =
  let expl = Mdp.Arena.explored arena in
  let n = Mdp.Arena.num_states arena in
  let states = Array.init n (Mdp.Explore.state expl) in
  [ ("fingerprint", Mdp.Arena.fingerprint arena);
    ( "counts",
      Codec.ints_to_string [| n; Mdp.Arena.num_expanded arena |] );
    ( "starts",
      Codec.ints_to_string
        (Array.of_list (Mdp.Arena.start_indices arena)) );
    ("step_off", Codec.ints_to_string arena.Mdp.Arena.step_off);
    ("out_off", Codec.ints_to_string arena.Mdp.Arena.out_off);
    ("tgt", Codec.ints_to_string arena.Mdp.Arena.tgt);
    ("tick", Codec.bools_to_string arena.Mdp.Arena.tick);
    ("prob_q", Codec.rats_to_string arena.Mdp.Arena.prob_q);
    ("actions", Marshal.to_string arena.Mdp.Arena.actions []);
    ("states", Marshal.to_string states []);
    ( "sym",
      match cert with
      | None -> ""
      | Some c -> Marshal.to_string (c : Sym.certificate) [] ) ]

let encode (c : Models.config) inst =
  let model =
    match inst with
    | Models.Lr _ | Models.Lr_topo _ -> `Lr
    | Models.Election _ -> `Election
    | Models.Coin _ -> `Coin
    | Models.Consensus _ -> `Consensus
  in
  if c.model <> model then
    invalid_arg
      (Printf.sprintf "Snapshot.Store.encode: config says %S, got a %s \
                       instance"
         (Models.model_name c.model) (Models.model_name model));
  Codec.encode
    (("config", config_payload c)
     :: Models.with_arena { Models.apply = arena_sections } inst)

let save ~path c loaded =
  let bytes = encode c loaded in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc bytes
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Decoding. *)

exception Refuse of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refuse s)) fmt

let section sections name =
  match List.assoc_opt name sections with
  | Some payload -> payload
  | None -> refuse "snapshot is missing section %S" name

let parsed of_string sections name =
  match of_string (section sections name) with
  | Ok v -> v
  | Error e -> refuse "snapshot section %S: %s" name e

let int_of what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> refuse "snapshot config: bad %s %S" what s

let config_of_sections sections =
  match Codec.strs_of_string (section sections "config") with
  | Error e -> refuse "snapshot section \"config\": %s" e
  | Ok [ model; n; g; k; topology; bound; cap; f; initial_s; sym_s ] ->
    let initial =
      match Codec.bools_of_string initial_s with
      | Ok a -> a
      | Error e -> refuse "snapshot config: initial: %s" e
    in
    let sym =
      match Sym.mode_of_string sym_s with
      | Some m -> m
      | None -> refuse "snapshot config: bad sym mode %S" sym_s
    in
    let model =
      match Models.model_of_string model with
      | Some m -> m
      | None -> refuse "snapshot config: unknown model %S" model
    in
    { Models.model; n = int_of "n" n; g = int_of "g" g; k = int_of "k" k;
      topology; bound = int_of "bound" bound; cap = int_of "cap" cap;
      f = int_of "f" f; initial; sym }
  | Ok fields ->
    refuse "snapshot config: expected 10 fields, found %d"
      (List.length fields)

(* [Marshal.from_string] is only reached after the container digest
   verified, so the blob is byte-identical to what [encode] wrote; the
   try still turns a truncated-blob [Failure] into a refusal rather
   than an escape. *)
let unmarshal : type v. (string * string) list -> string -> v =
  fun sections name ->
  let payload = section sections name in
  try (Marshal.from_string payload 0 : v)
  with Failure _ | Invalid_argument _ ->
    refuse "snapshot section %S: undecodable blob" name

(* Rebuild fragment + arena from the sections under the current model
   code ([pa], [spec], [is_tick]).  [Explore.of_parts] re-derives every
   stored row from [pa] and [Store] re-derives the tick mask from
   [is_tick], so a snapshot of another instance, or one compiled by
   other model code, is refused as stale rather than served. *)
let rebuild (type s a) ~(pa : (s, a) Core.Pa.t)
    ~(spec : (s, a) Sym.spec) ~(is_tick : a -> bool) sections :
  (s, a) Mdp.Arena.t * Sym.certificate option =
  let counts = parsed Codec.ints_of_string sections "counts" in
  if Array.length counts <> 2 then
    refuse "snapshot section \"counts\": expected 2 integers, found %d"
      (Array.length counts);
  let states : s array = unmarshal sections "states" in
  if Array.length states <> counts.(0) then
    refuse "snapshot states array has %d entries, counts say %d"
      (Array.length states) counts.(0);
  let cert : Sym.certificate option =
    match section sections "sym" with
    | "" -> None
    | _ -> Some (unmarshal sections "sym")
  in
  (* A reduced fragment interns orbit representatives; replaying it and
     resolving [index] lookups both need the canonicalizer the original
     exploration used. *)
  let canon =
    match cert with
    | Some c when c.Sym.reduced ->
      Some (Sym.canonicalizer ~equal:(Core.Pa.equal_state pa) spec)
    | Some _ | None -> None
  in
  let expl =
    try
      Mdp.Explore.of_parts ?canon ~pa ~states
        ~step_off:(parsed Codec.ints_of_string sections "step_off")
        ~out_off:(parsed Codec.ints_of_string sections "out_off")
        ~tgt:(parsed Codec.ints_of_string sections "tgt")
        ~prob_q:(parsed Codec.rats_of_string sections "prob_q")
        ~actions:(unmarshal sections "actions")
        ~start_indices:
          (Array.to_list (parsed Codec.ints_of_string sections "starts"))
        ~expanded:counts.(1) ()
    with
    | Mdp.Explore.Stale msg -> refuse "snapshot is stale: %s" msg
    | Invalid_argument msg -> refuse "snapshot fragment: %s" msg
  in
  let tick = parsed Codec.bools_of_string sections "tick" in
  if tick <> Array.map is_tick (Mdp.Explore.actions expl) then
    refuse "snapshot is stale: the tick mask differs";
  let arena = Mdp.Arena.assemble ~tick expl in
  let stored_fp = section sections "fingerprint" in
  let rebuilt_fp = Mdp.Arena.fingerprint arena in
  if not (String.equal stored_fp rebuilt_fp) then
    refuse "snapshot fingerprint mismatch: stored %s, rebuilt %s"
      stored_fp rebuilt_fp;
  (arena, cert)

let instantiate sections =
  let c = config_of_sections sections in
  if c.n < 2 then refuse "snapshot config: n=%d out of range" c.n;
  if c.g < 1 || c.k < 1 then
    refuse "snapshot config: g=%d k=%d out of range" c.g c.k;
  if c.model = `Coin && c.bound < 1 then
    refuse "snapshot config: bound=%d out of range" c.bound;
  if c.model = `Consensus && Array.length c.initial <> c.n then
    refuse "snapshot config: %d initial estimates for n=%d"
      (Array.length c.initial) c.n;
  ( c,
    Models.assemble c
      { Models.rebuild =
          (fun ~pa ~spec ~is_tick -> rebuild ~pa ~spec ~is_tick sections) } )

let of_string bytes =
  match Codec.decode bytes with
  | Error e -> Error e
  | Ok sections -> (
      try Ok (instantiate sections) with
      | Refuse msg -> Error msg
      | Invalid_argument msg | Failure msg ->
        Error (Printf.sprintf "snapshot rejected: %s" msg))

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file ->
    Error (Printf.sprintf "%s: truncated while reading" path)
  | bytes -> of_string bytes
