module Q = Proba.Rational

exception Too_many_states of int
exception Stale of string

(* The fragment's rows are CSR arrays, written once by [bfs] and shared
   by every arena compiled from it: [step_off] (state -> step range),
   [out_off] (step -> branch range), [tgt]/[prob_q] (branch -> target,
   exact weight) and [actions] (step -> action). *)
type ('s, 'a) t = {
  pa : ('s, 'a) Core.Pa.t;
  states : 's array;
  table : ('s, int) Funtbl.t;
  step_off : int array;
  out_off : int array;
  tgt : int array;
  prob_q : Q.t array;
  actions : 'a array;
  start_indices : int list;
  expanded : int;
  canon : 's -> 's;  (** identity unless the fragment is a quotient *)
}

type ('s, 'a) partial = {
  fragment : ('s, 'a) t;
  complete : bool;
  frontier : int;
  stopped : string option;
}

(* Process-wide count of BFS explorations, surfaced through
   [Models.stats] so the CLI can assert that memoization collapses
   repeated model uses into one exploration.  Atomic because several
   worker domains may explore distinct models concurrently under
   [prtb serve]. *)
let explorations_counter = Atomic.make 0
let explorations () = Atomic.get explorations_counter

(* A growable array: [push] doubles the backing store when full,
   [contents] trims it to the pushed prefix.  The store doubles by
   appending it to itself, never by [Array.make] with a pushed value:
   making a major-heap array from a young block forces a minor
   collection, which stops every domain of a serving process. *)
module Buf = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length b = b.len
  let get b i = b.data.(i)

  let push b x =
    if Array.length b.data = 0 then b.data <- Array.make 16 x
    else if b.len = Array.length b.data then
      b.data <- Array.append b.data b.data;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

(* The one row-expansion function.  State [s]'s row is its enabled
   steps in [Pa.enabled] order: [step] receives each step's action,
   then [branch] each of its outcomes as (target index, weight), the
   targets resolved by [intern] in support order.  Distinct support
   states can intern to one index when the PA's state equality is
   coarser than the equality the distribution was merged under (or on
   an orbit quotient); they are coalesced, keeping first-occurrence
   order, so no downstream sweep pays for split masses.  [bfs] appends
   what this reports; [of_parts] matches it against stored rows. *)
let expand m ~intern ~step ~branch s =
  List.iter
    (fun (st : _ Core.Pa.step) ->
       step st.Core.Pa.action;
       let outcomes =
         List.map (fun (t, w) -> (intern t, w)) (Proba.Dist.support st.dist)
       in
       let rec coalesce = function
         | [] -> ()
         | (i, w) :: rest ->
           let same, rest = List.partition (fun (j, _) -> j = i) rest in
           branch i (List.fold_left (fun w (_, w') -> Q.add w w') w same);
           coalesce rest
       in
       coalesce outcomes)
    (Core.Pa.enabled m s)

(* Shared BFS.  Interning order is FIFO visitation order, so states are
   expanded in index order -- the interned states are the queue -- and
   an incomplete run's frontier is exactly the index suffix
   [expanded ..], whose rows stay empty.  [stop] is consulted before
   each expansion; [hard_max] reproduces the legacy contract of {!run}
   (raise the moment a state beyond the bound would be interned). *)
let bfs ?hard_max ?(stop = fun ~interned:_ -> None) ?(canon = fun s -> s) m =
  Atomic.incr explorations_counter;
  let table =
    Funtbl.create ~equal:(Core.Pa.equal_state m) ~hash:(Core.Pa.hash_state m)
      1024
  in
  let states = Buf.create () in
  let intern s =
    (* Canonicalizing before the table lookup is the whole of orbit
       reduction: every state of an orbit interns to its
       representative's index, so the BFS explores the quotient MDP and
       everything downstream (arena compilation included) is oblivious.
       [find_or_add] interns with a single hash-and-probe; a raised
       [Too_many_states] leaves the table untouched. *)
    let s = canon s in
    Funtbl.find_or_add table s (fun () ->
        (match hard_max with
         | Some bound when Buf.length states >= bound ->
           raise (Too_many_states bound)
         | Some _ | None -> ());
        let i = Buf.length states in
        Buf.push states s;
        i)
  in
  let start_indices = List.map intern (Core.Pa.start m) in
  let step_off = Buf.create () and out_off = Buf.create () in
  let tgt = Buf.create () and prob_q = Buf.create () in
  let actions = Buf.create () in
  let step a =
    Buf.push out_off (Buf.length tgt);
    Buf.push actions a
  in
  let branch j w =
    Buf.push tgt j;
    Buf.push prob_q w
  in
  Buf.push step_off 0;
  let expanded = ref 0 in
  let stopped = ref None in
  while !stopped = None && !expanded < Buf.length states do
    Core.Budget.poll ();
    match stop ~interned:(Buf.length states) with
    | Some _ as reason -> stopped := reason
    | None ->
      expand m ~intern ~step ~branch (Buf.get states !expanded);
      Buf.push step_off (Buf.length actions);
      incr expanded
  done;
  for _ = !expanded + 1 to Buf.length states do
    Buf.push step_off (Buf.length actions)
  done;
  Buf.push out_off (Buf.length tgt);
  ( { pa = m; states = Buf.contents states; table;
      step_off = Buf.contents step_off; out_off = Buf.contents out_off;
      tgt = Buf.contents tgt; prob_q = Buf.contents prob_q;
      actions = Buf.contents actions; start_indices; expanded = !expanded;
      canon },
    !stopped )

let run ?(max_states = 5_000_000) ?canon m =
  let fragment, _ = bfs ~hard_max:max_states ?canon m in
  fragment

let stale fmt = Printf.ksprintf (fun s -> raise (Stale s)) fmt

(* Rehydration constructor for snapshot loading: rebuilds the intern
   table from the state array and replays the exploration against the
   stored rows instead of appending them -- the same [expand], the same
   interning order -- so it does NOT bump [explorations_counter] (the
   CI snapshot smoke asserts the counter stays at zero), yet accepts
   exactly the rows [bfs] would write under the current [pa]. *)
let of_parts ?(canon = fun s -> s) ~pa ~states ~step_off ~out_off ~tgt
    ~prob_q ~actions ~start_indices ~expanded () =
  let n = Array.length states in
  let num_steps = Array.length actions in
  let num_branches = Array.length tgt in
  if expanded < 0 || expanded > n then
    invalid_arg "Explore.of_parts: expanded out of range";
  if Array.length step_off <> n + 1
     || Array.length out_off <> num_steps + 1
     || Array.length prob_q <> num_branches then
    invalid_arg "Explore.of_parts: row array lengths disagree";
  let table =
    Funtbl.create ~equal:(Core.Pa.equal_state pa) ~hash:(Core.Pa.hash_state pa)
      (max 16 (2 * n))
  in
  Array.iteri
    (fun i s ->
       if Funtbl.find_or_add table s (fun () -> i) <> i then
         stale "state %d is stored twice" i)
    states;
  (* [discovered] replays the BFS interning counter: a target is either
     already discovered or exactly the next index. *)
  let discovered = ref 0 in
  let intern s =
    match Funtbl.find table (canon s) with
    | Some j when j < !discovered -> j
    | Some j when j = !discovered -> incr discovered; j
    | Some j -> stale "state %d is discovered out of order" j
    | None -> stale "a successor the current model reaches is not stored"
  in
  if List.map intern (Core.Pa.start pa) <> start_indices then
    stale "the start states differ";
  let row = ref 0 and k = ref 0 and o = ref 0 in
  let step a =
    if !k >= num_steps
       || out_off.(!k) <> !o
       || not (Core.Pa.equal_action pa a actions.(!k)) then
      stale "state %d: step %d differs" !row (!k - step_off.(!row));
    incr k
  in
  let branch j w =
    if !o >= num_branches || tgt.(!o) <> j || not (Q.equal w prob_q.(!o)) then
      stale "state %d: branch %d differs" !row (!o - out_off.(!k - 1));
    incr o
  in
  if step_off.(0) <> 0 then stale "state 0: row offset differs";
  for i = 0 to n - 1 do
    row := i;
    if i < expanded then expand pa ~intern ~step ~branch states.(i);
    if step_off.(i + 1) <> !k then stale "state %d: step count differs" i
  done;
  if !k <> num_steps || out_off.(num_steps) <> !o || !o <> num_branches then
    stale "rows continue past the last state";
  if !discovered <> n then stale "state %d is never reached" !discovered;
  { pa; states; table; step_off; out_off; tgt; prob_q; actions;
    start_indices; expanded; canon }

let run_budgeted ?(budget = Core.Budget.unlimited) ?clock ?canon m =
  let clock =
    match clock with Some c -> c | None -> Core.Budget.start budget
  in
  let stop ~interned = Core.Budget.exhausted ~states:interned clock in
  let fragment, stopped = bfs ~stop ?canon m in
  { fragment;
    complete = stopped = None;
    frontier = Array.length fragment.states - fragment.expanded;
    stopped }

let automaton e = e.pa
let num_states e = Array.length e.states
let num_expanded e = e.expanded
let is_expanded e i = i < e.expanded
let is_complete e = e.expanded = Array.length e.states
let num_choices e = Array.length e.actions
let num_branches e = Array.length e.tgt
let step_off e = e.step_off
let out_off e = e.out_off
let tgt e = e.tgt
let prob_q e = e.prob_q
let actions e = e.actions
let state e i = e.states.(i)
let index e s = Funtbl.find e.table (e.canon s)
let start_indices e = e.start_indices

let states_where e pred =
  let acc = ref [] in
  for i = Array.length e.states - 1 downto 0 do
    if pred e.states.(i) then acc := i :: !acc
  done;
  !acc

let indicator e pred =
  Array.map (fun s -> Core.Pred.mem pred s) e.states

let check_invariant e pred =
  let n = Array.length e.states in
  let rec go i =
    if i >= n then None
    else if not (pred e.states.(i)) then Some e.states.(i)
    else go (i + 1)
  in
  go 0
