type verdict =
  | Ok
  | Probabilistic_zero_time_cycle of int list

(* Zero-time adjacency and, per edge, whether the underlying step is
   probabilistic (more than one outcome).  Reads the arena's
   precomputed tick mask and CSR rows. *)
let zero_time_edges (a : _ Arena.t) i =
  let acc = ref [] in
  for k = a.Arena.step_off.(i + 1) - 1 downto a.Arena.step_off.(i) do
    if not a.Arena.tick.(k) then begin
      let lo = a.Arena.out_off.(k) and hi = a.Arena.out_off.(k + 1) in
      let probabilistic = hi - lo > 1 in
      for o = hi - 1 downto lo do
        acc := (a.Arena.tgt.(o), probabilistic) :: !acc
      done
    end
  done;
  !acc

(* Iterative Tarjan SCC over the zero-time graph. *)
let sccs (a : _ Arena.t) =
  let n = a.Arena.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let component = Array.make n (-1) in
  let num_components = ref 0 in
  let adjacency =
    Array.init n (fun i -> List.map fst (zero_time_edges a i))
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      (* Explicit DFS stack: (node, remaining successors). *)
      let call = Stack.create () in
      let visit v =
        index.(v) <- !counter;
        lowlink.(v) <- !counter;
        incr counter;
        stack := v :: !stack;
        on_stack.(v) <- true;
        Stack.push (v, ref adjacency.(v)) call
      in
      visit root;
      while not (Stack.is_empty call) do
        let v, succs = Stack.top call in
        match !succs with
        | w :: rest ->
          succs := rest;
          if index.(w) < 0 then visit w
          else if on_stack.(w) then
            lowlink.(v) <- Stdlib.min lowlink.(v) index.(w)
        | [] ->
          ignore (Stack.pop call);
          (match Stack.top_opt call with
           | Some (parent, _) ->
             lowlink.(parent) <- Stdlib.min lowlink.(parent) lowlink.(v)
           | None -> ());
          if lowlink.(v) = index.(v) then begin
            let c = !num_components in
            incr num_components;
            let rec pop () =
              match !stack with
              | [] -> ()
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                component.(w) <- c;
                if w <> v then pop ()
            in
            pop ()
          end
      done
    end
  done;
  component

let check (a : _ Arena.t) =
  let component = sccs a in
  let n = a.Arena.n in
  let bad = ref None in
  (try
     for i = 0 to n - 1 do
       List.iter
         (fun (j, probabilistic) ->
            if probabilistic && component.(i) = component.(j) then begin
              bad := Some component.(i);
              raise Exit
            end)
         (zero_time_edges a i)
     done
   with Exit -> ());
  match !bad with
  | None -> Ok
  | Some c ->
    let members = ref [] in
    for i = n - 1 downto 0 do
      if component.(i) = c then members := i :: !members
    done;
    Probabilistic_zero_time_cycle !members
