module Q = Proba.Rational

type mode = Auto | On | Off

let mode_to_string = function Auto -> "auto" | On -> "on" | Off -> "off"

let mode_of_string = function
  | "auto" -> Some Auto
  | "on" -> Some On
  | "off" -> Some Off
  | _ -> None

type ('s, 'a) generator = {
  gen_name : string;
  on_state : 's -> 's;
  on_action : 'a -> 'a;
}

let generator ~name ~on_state ~on_action =
  { gen_name = name; on_state; on_action }

type ('s, 'a) spec = {
  generators : ('s, 'a) generator list;
  invariant_preds : (string * ('s -> bool)) list;
}

let spec ?(preds = []) generators = { generators; invariant_preds = preds }

exception Not_certified of string

(* ------------------------------------------------------------------ *)
(* Orbits.

   The orbit of a state under the group generated by the declared
   permutations, by closure: repeatedly apply every generator until no
   new state appears.  Orbits of the models here are tiny (at most the
   process count for rotations, [n!] for full symmetric groups at small
   [n]), so an array with linear membership is the right structure --
   anything fancier would pay more in hashing than it saves.

   The closure records where each generator sends each member: that
   action table is what lets [verify] pair each member with its images
   without applying a generator to the member again.

   [closure ~equal gens s] is [(size, members, table)]: the members
   [members.(0 .. size - 1)] in discovery order (the arrays may be
   longer), and [table.(i * ngens + k)], the index of [gens.(k)]
   applied to member [i].  The orbit's order, in which [verify] checks
   it, is the reverse of discovery order. *)

let closure ?(max_orbit = 40_320) ~equal gens s =
  let ngens = Array.length gens in
  let members = ref (Array.make 8 s) in
  let table = ref (Array.make (8 * ngens) 0) in
  let size = ref 1 in
  let rec index y j =
    if j < 0 then -1 else if equal y !members.(j) then j else index y (j - 1)
  in
  let frontier = ref [ 0 ] in
  let overflow = ref false in
  while !frontier <> [] && not !overflow do
    let work = !frontier in
    frontier := [];
    List.iter
      (fun x ->
         for k = 0 to ngens - 1 do
           let y = gens.(k).on_state !members.(x) in
           let j = index y (!size - 1) in
           if j >= 0 then !table.((x * ngens) + k) <- j
           else if !size >= max_orbit then overflow := true
           else begin
             if !size = Array.length !members then begin
               members := Array.append !members !members;
               table := Array.append !table !table
             end;
             let j = !size in
             !members.(j) <- y;
             !table.((x * ngens) + k) <- j;
             incr size;
             frontier := j :: !frontier
           end
         done)
      work
  done;
  if !overflow then
    invalid_arg
      (Printf.sprintf
         "Symmetry.orbit: orbit exceeded %d states (is a declared \
          permutation really a bijection?)"
         max_orbit);
  (!size, !members, !table)

let orbit ?max_orbit ~equal gens s =
  let size, members, _ = closure ?max_orbit ~equal (Array.of_list gens) s in
  List.init size (fun i -> members.(size - 1 - i))

let canonicalizer ?(compare = Stdlib.compare) ?max_orbit ~equal spec =
  match spec.generators with
  | [] -> fun s -> s
  | gens ->
    let gens = Array.of_list gens in
    fun s ->
      let size, members, _ = closure ?max_orbit ~equal gens s in
      let best = ref s in
      for i = size - 1 downto 0 do
        if compare members.(i) !best < 0 then best := members.(i)
      done;
      !best

(* ------------------------------------------------------------------ *)
(* Certificates. *)

type certificate = {
  cert_generators : (string * string) list;
  states_checked : int;
  full_states : int;
  reduced : bool;
  preds_checked : string list;
}

let certificate_to_json c =
  Json.Obj
    [ ( "generators",
        Json.Arr
          (List.map
             (fun (name, fp) ->
                Json.Obj
                  [ ("name", Json.Str name); ("fingerprint", Json.Str fp) ])
             c.cert_generators) );
      ("states_checked", Json.Int c.states_checked);
      ("full_states", Json.Int c.full_states);
      ("reduced", Json.Bool c.reduced);
      ("preds", Json.Arr (List.map (fun p -> Json.Str p) c.preds_checked)) ]

(* ------------------------------------------------------------------ *)
(* Equivariance verification. *)

(* Distribution support with outcomes merged up to [equal] -- the image
   of a distribution under a permutation may identify targets the
   original kept apart only when the permutation is NOT injective,
   which is exactly what the comparison below would then expose. *)
let merged_support ~equal outs =
  List.fold_left
    (fun acc (t, w) ->
       let rec go = function
         | [] -> [ (t, w) ]
         | (t', w') :: rest when equal t t' -> (t', Q.add w w') :: rest
         | x :: rest -> x :: go rest
       in
       go acc)
    [] outs

let rec remove_outcome ~equal t w = function
  | [] -> None
  | (t', w') :: rest when equal t t' && Q.equal w w' -> Some rest
  | x :: rest ->
    Option.map (fun r -> x :: r) (remove_outcome ~equal t w rest)

let dist_equal ~equal a b =
  List.length a = List.length b
  && (let remaining = ref b in
      List.for_all
        (fun (t, w) ->
           match remove_outcome ~equal t w !remaining with
           | Some rest ->
             remaining := rest;
             true
           | None -> false)
        a)

let rec remove_step ~equal ~equal_action (a, outs) = function
  | [] -> None
  | (a', outs') :: rest when equal_action a a' && dist_equal ~equal outs outs'
    ->
    Some rest
  | x :: rest ->
    Option.map (fun r -> x :: r) (remove_step ~equal ~equal_action (a, outs) rest)

(* The enabled steps at [s] as (action, merged support) pairs: what
   [verify] computes once per orbit member. *)
let merged_steps ~equal pa s =
  List.map
    (fun st ->
       ( st.Core.Pa.action,
         merged_support ~equal (Proba.Dist.support st.Core.Pa.dist) ))
    (Core.Pa.enabled pa s)

(* Is [target] (the steps at [g s]) the g-image of [source] (the steps
   at [s]) as a multiset of (action, distribution) pairs?  Merging the
   image again is what exposes a non-injective [g]. *)
let equivariant ~equal ~equal_action g source target =
  let image_steps =
    List.map
      (fun (a, outs) ->
         ( g.on_action a,
           merged_support ~equal (List.map (fun (t, w) -> (g.on_state t, w)) outs)
         ))
      source
  in
  List.length image_steps = List.length target
  && (let remaining = ref target in
      List.for_all
        (fun step ->
           match remove_step ~equal ~equal_action step !remaining with
           | Some rest ->
             remaining := rest;
             true
           | None -> false)
        image_steps)

(* Deterministic 30-bit fingerprint accumulator: position-dependent
   mixing of the state hashes a generator was spot-checked at, printed
   as hex in the certificate so two runs over the same fragment can be
   compared at a glance. *)
let mix fp h = ((fp * 131) + h + 1) land 0x3FFFFFFF

(* [slots names]: for each entry, the position of the first entry with
   the same name.  Verdicts and fingerprints are kept per name, so
   same-named entries (the ring declares "G" twice) share one. *)
let slots names =
  let names = Array.of_list names in
  Array.map
    (fun name ->
       let rec first j = if names.(j) = name then j else first (j + 1) in
       first 0)
    names

let verify ~model ?(reduced = false) ?max_orbit ?(max_checks = 1_000_000)
    spec expl =
  let pa = Mdp.Explore.automaton expl in
  let equal = Core.Pa.equal_state pa in
  let equal_action = Core.Pa.equal_action pa in
  let hash = Core.Pa.hash_state pa in
  let pp_state s = Format.asprintf "%a" (Core.Pa.pp_state pa) s in
  let gens = Array.of_list spec.generators in
  let preds = Array.of_list spec.invariant_preds in
  let n = Mdp.Explore.num_states expl in
  let ngens = Array.length gens in
  (* Check every state of every orbit when that fits [max_checks]
     (state, generator) evaluations; otherwise stride-sample the
     representatives.  The certificate records actual coverage. *)
  let full_states = ref 0 in
  let states_checked = ref 0 in
  let budget_per_gen = if ngens = 0 then max_checks else max_checks / ngens in
  let stride =
    if reduced then 1 (* orbit expansion below handles the volume *)
    else max 1 ((n + budget_per_gen - 1) / max 1 budget_per_gen)
  in
  let gslot = slots (List.map (fun g -> g.gen_name) spec.generators) in
  let pslot = slots (List.map fst spec.invariant_preds) in
  let pa030 = Array.make ngens None in
  let pa031 = Array.make (Array.length preds) None in
  let fps = Array.make ngens 0 in
  (* Start-set invariance: the image of a start state must be a start
     state, else the permutation moves the automaton, not just its
     state space. *)
  let starts = Core.Pa.start pa in
  Array.iteri
    (fun k g ->
       List.iter
         (fun s0 ->
            let img = g.on_state s0 in
            if not (List.exists (equal img) starts)
            && pa030.(gslot.(k)) = None then
              pa030.(gslot.(k)) <-
                Some
                  (Printf.sprintf
                     "start state %s maps to %s, which is not a start state"
                     (pp_state s0) (pp_state img)))
         starts)
    gens;
  (* Check a block of [size] states closed under the action table:
     [table.(i * ngens + k)] is the index of [gens.(k)] applied to
     member [i].  Members [top], [top - 1], ..., [0] are checked, in
     that order (an orbit's order is the reverse of its discovery
     order).  Each member's steps, hash and predicate values are
     computed once, however many pairs use them. *)
  let check_block size members table ~top =
    let hashes = Array.init size (fun j -> hash members.(j)) in
    let values =
      Array.init size (fun j -> Array.map (fun (_, p) -> p members.(j)) preds)
    in
    let steps = Array.make size None in
    let steps_of j =
      match steps.(j) with
      | Some st -> st
      | None ->
        let st = merged_steps ~equal pa members.(j) in
        steps.(j) <- Some st;
        st
    in
    for i = top downto 0 do
      incr states_checked;
      Array.iteri
        (fun k g ->
           let slot = gslot.(k) in
           if pa030.(slot) = None then begin
             let j = table.((i * ngens) + k) in
             fps.(slot) <- mix fps.(slot) (hashes.(i) + hashes.(j));
             if not
                 (equivariant ~equal ~equal_action g (steps_of i) (steps_of j))
             then
               pa030.(slot) <-
                 Some
                   (Printf.sprintf "steps(%s) is not the %s-image of steps(%s)"
                      (pp_state members.(j)) g.gen_name (pp_state members.(i)))
           end)
        gens;
      Array.iteri
        (fun p (pname, _) ->
           let slot = pslot.(p) in
           let here = values.(i).(p) in
           Array.iteri
             (fun k g ->
                let j = table.((i * ngens) + k) in
                if pa031.(slot) = None && values.(j).(p) <> here then begin
                  let holds, fails = if here then (i, j) else (j, i) in
                  pa031.(slot) <-
                    Some
                      (Printf.sprintf "%s holds of %s but not of its %s-image %s"
                         pname (pp_state members.(holds)) g.gen_name
                         (pp_state members.(fails)))
                end)
             gens)
        preds
    done
  in
  if ngens > 0 then
    for i = 0 to n - 1 do
      let rep = Mdp.Explore.state expl i in
      if reduced then begin
        (* A reduced fragment stores one representative per orbit;
           checking equivariance at EVERY orbit member is what makes
           the certificate cover the unreduced reachable set: the
           orbits of the representatives are exactly the reachable
           states of the full automaton. *)
        let size, members, table = closure ?max_orbit ~equal gens rep in
        full_states := !full_states + size;
        check_block size members table ~top:(size - 1)
      end
      else begin
        incr full_states;
        if i mod stride = 0 then
          (* The state itself, then its image under each generator. *)
          check_block (ngens + 1)
            (Array.append [| rep |] (Array.map (fun g -> g.on_state rep) gens))
            (Array.init ngens (fun k -> k + 1))
            ~top:0
      end
    done;
  let diags =
    List.filter_map Fun.id
      (List.mapi
         (fun k g ->
            Option.map
              (fun w ->
                 Diagnostic.v ~witness:w Diagnostic.PA030 Diagnostic.Error
                   ~model
                   (Printf.sprintf
                      "declared permutation %s is not an automorphism of the \
                       explored fragment"
                      g.gen_name))
              pa030.(gslot.(k)))
         spec.generators)
    @ List.filter_map Fun.id
        (List.mapi
           (fun p (pname, _) ->
              Option.map
                (fun w ->
                   Diagnostic.v ~witness:w Diagnostic.PA031 Diagnostic.Error
                     ~model
                     (Printf.sprintf
                        "predicate %s is not invariant under the declared \
                         symmetry group; orbit reduction would be unsound"
                        pname))
                pa031.(pslot.(p)))
           spec.invariant_preds)
  in
  if diags <> [] || ngens = 0 then (diags, None)
  else begin
    let cert =
      { cert_generators =
          List.mapi
            (fun k g -> (g.gen_name, Printf.sprintf "%08x" fps.(gslot.(k))))
            spec.generators;
        states_checked = !states_checked;
        full_states = !full_states;
        reduced;
        preds_checked = List.map fst spec.invariant_preds }
    in
    (* PA032: the group is certified but the fragment was explored
       unreduced -- measure what reduction would save. *)
    let advisory =
      if reduced then []
      else begin
        let canon = canonicalizer ~equal spec in
        let reps = Mdp.Funtbl.create ~equal ~hash 1024 in
        let distinct = ref 0 in
        for i = 0 to n - 1 do
          ignore
            (Mdp.Funtbl.find_or_add reps (canon (Mdp.Explore.state expl i))
               (fun () ->
                  incr distinct;
                  !distinct))
        done;
        if !distinct < n then
          [ Diagnostic.v Diagnostic.PA032 Diagnostic.Info ~model
              (Printf.sprintf
                 "model is symmetric under the certified group but was \
                  explored unreduced: %d states collapse to %d orbit \
                  representatives (%.2fx); explore with symmetry reduction \
                  (--sym on) to check the quotient"
                 n !distinct
                 (float_of_int n /. float_of_int !distinct)) ]
        else []
      end
    in
    (advisory, Some cert)
  end

(* The [Not_certified] payload: every refusing diagnostic, or the one
   refusal [verify] has no diagnostic for (an empty generator list). *)
let rejected ~model diags =
  let reason =
    match diags with
    | [] -> "no symmetry generators declared"
    | _ ->
      String.concat "; "
        (List.map
           (fun d ->
              Printf.sprintf "%s: %s"
                (Diagnostic.code_name d.Diagnostic.code)
                d.Diagnostic.message)
           diags)
  in
  Printf.sprintf "%s: symmetry reduction rejected: %s" model reason

let explored ~model ~mode ?max_states ?max_orbit ?max_checks spec pa =
  match mode with
  | Off -> (Mdp.Explore.run ?max_states pa, None)
  | On | Auto ->
    let equal = Core.Pa.equal_state pa in
    let canon = canonicalizer ?max_orbit ~equal spec in
    let expl = Mdp.Explore.run ?max_states ~canon pa in
    (match
       verify ~model ~reduced:true ?max_orbit ?max_checks spec expl
     with
     | _, Some cert -> (expl, Some cert)
     | diags, None ->
       (* [Auto] falls back to the unreduced exploration; [On] was an
          explicit demand, so failing to certify is an error. *)
       if mode = On then raise (Not_certified (rejected ~model diags));
       (Mdp.Explore.run ?max_states pa, None))
