module Q = Proba.Rational

let structural x = Marshal.to_string x []

(* Action keys are block-independent: collapse each step's action once
   per call rather than once per step per refinement round. *)
let action_keys action_key (a : _ Arena.t) =
  Array.map action_key a.Arena.actions

(* A state's signature: for each of its steps, the step's collapsed
   action key together with the probability it assigns to each block,
   blocks in ascending order; duplicate steps removed, canonically
   ordered.  Reads the arena's CSR rows and exact plane.  Refinement
   groups states by it and the quotient reads its steps off it. *)
let state_signature keys blocks (a : _ Arena.t) i =
  let rec bump b w = function
    | [] -> [ (b, w) ]
    | (b', w') :: tl when b' = b -> (b, Q.add w' w) :: tl
    | hd :: tl -> hd :: bump b w tl
  in
  let step k =
    let entries = ref [] in
    for o = a.Arena.out_off.(k) to a.Arena.out_off.(k + 1) - 1 do
      entries := bump blocks.(a.Arena.tgt.(o)) a.Arena.prob_q.(o) !entries
    done;
    (keys.(k), List.sort (fun (x, _) (y, _) -> compare x y) !entries)
  in
  let sigs = ref [] in
  for k = a.Arena.step_off.(i + 1) - 1 downto a.Arena.step_off.(i) do
    sigs := step k :: !sigs
  done;
  List.sort_uniq compare !sigs

let refine (a : _ Arena.t) ~labels ?(action_key = structural) () =
  let n = a.Arena.n in
  if Array.length labels <> n then
    invalid_arg "Bisim.refine: labels array has wrong length";
  let keys = action_keys action_key a in
  (* Current partition as block ids, renumbered in first-encounter
     order every round; refine until stable. *)
  let blocks = Array.copy labels in
  let stable = ref false in
  while not !stable do
    Core.Budget.poll ();
    let seen = Hashtbl.create (2 * n) in
    let fresh = ref 0 in
    let next = Array.make n 0 in
    for i = 0 to n - 1 do
      let key = (blocks.(i), state_signature keys blocks a i) in
      let b =
        match Hashtbl.find_opt seen key with
        | Some b -> b
        | None ->
          let b = !fresh in
          incr fresh;
          Hashtbl.add seen key b;
          b
      in
      next.(i) <- b
    done;
    stable := Array.for_all2 ( = ) blocks next;
    Array.blit next 0 blocks 0 n
  done;
  blocks

let num_blocks partition =
  let seen = Hashtbl.create 64 in
  Array.iter (fun b -> Hashtbl.replace seen b ()) partition;
  Hashtbl.length seen

let quotient (a : _ Arena.t) partition ?(action_key = structural) () =
  let n = a.Arena.n in
  if Array.length partition <> n then
    invalid_arg "Bisim.quotient: partition array has wrong length";
  let keys = action_keys action_key a in
  (* One representative per block. *)
  let rep = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    Hashtbl.replace rep partition.(i) i
  done;
  let enabled b =
    match Hashtbl.find_opt rep b with
    | None -> []
    | Some i ->
      let sigs = state_signature keys partition a i in
      List.map
        (fun (key, entries) ->
           { Core.Pa.action = key; dist = Proba.Dist.make entries })
        sigs
  in
  let start =
    match Arena.start_indices a with
    | i :: _ -> partition.(i)
    | [] -> invalid_arg "Bisim.quotient: no start states"
  in
  Core.Pa.make
    ~pp_state:(fun fmt b -> Format.fprintf fmt "B%d" b)
    ~pp_action:Format.pp_print_string
    ~start:[ start ] ~enabled ()
