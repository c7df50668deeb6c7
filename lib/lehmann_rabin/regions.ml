let trying = function
  | State.Flip | State.Wait _ | State.Second _ | State.Drop _ | State.Pre ->
    true
  | State.Rem | State.Crit | State.Exit_f | State.Exit_s _ | State.Exit_r ->
    false

let some_region pred s = Array.exists (fun p -> pred p.State.region) s.State.procs

let t = Core.Pred.make "T" (some_region trying)

let c = Core.Pred.make "C" (some_region (fun r -> r = State.Crit))

let quiet region =
  (* {E_R, R} ∪ T: neither critical nor holding resources in exit. *)
  trying region || region = State.Rem || region = State.Exit_r

let in_rt s =
  some_region trying s
  && Array.for_all (fun p -> quiet p.State.region) s.State.procs

let rt = Core.Pred.make "RT" in_rt

let f =
  Core.Pred.make "F" (fun s ->
      in_rt s && some_region (fun r -> r = State.Flip) s)

let p = Core.Pred.make "P" (some_region (fun r -> r = State.Pre))

(* "i potentially controls its left/right resource": pc in {W, S, D}
   pointing that way.  The paper's # stands for {W, S, D}. *)
let points region side =
  match region with
  | State.Wait u | State.Second u | State.Drop u -> u = side
  | State.Rem | State.Flip | State.Pre | State.Crit | State.Exit_f
  | State.Exit_s _ | State.Exit_r -> false

(* X in {E_R, R, F, #_side}. *)
let harmless_or_points region side =
  (match region with
   | State.Exit_r | State.Rem | State.Flip -> true
   | State.Wait _ | State.Second _ | State.Drop _ -> points region side
   | State.Pre | State.Crit | State.Exit_f | State.Exit_s _ -> false)

let committed_toward region side =
  match region with
  | State.Wait u | State.Second u -> u = side
  | State.Rem | State.Flip | State.Drop _ | State.Pre | State.Crit
  | State.Exit_f | State.Exit_s _ | State.Exit_r -> false

let good_at s i =
  let pi = s.State.procs.(i).State.region in
  (* Committed to the left: the second resource is the right one,
     contested by the right neighbor pointing left. *)
  (committed_toward pi State.L
   && harmless_or_points (State.right_neighbor s i).State.region State.R)
  || (committed_toward pi State.R
      && harmless_or_points (State.left_neighbor s i).State.region State.L)

let good_processes s =
  if not (in_rt s) then []
  else
    List.filter (good_at s)
      (List.init (State.num_procs s) (fun i -> i))

let g =
  Core.Pred.make "G" (fun s ->
      in_rt s
      && List.exists (good_at s) (List.init (State.num_procs s) (fun i -> i)))

(* Generalized goodness over an arbitrary topology: process [i],
   committed toward side [u], is good when no {e other} process sharing
   its second resource (the opposite side) potentially controls it. *)
let good_at_general topo s i =
  let pi = s.State.procs.(i).State.region in
  let good_toward u =
    committed_toward pi u
    && begin
      let second = Topology.res topo i (State.opp u) in
      List.for_all
        (fun (j, side_j) ->
           j = i
           ||
           let rj = s.State.procs.(j).State.region in
           (match rj with
            | State.Exit_r | State.Rem | State.Flip -> true
            | State.Wait _ | State.Second _ | State.Drop _ ->
              not (points rj side_j)
            | State.Pre | State.Crit | State.Exit_f | State.Exit_s _ ->
              false))
        (Topology.contenders topo second)
    end
  in
  good_toward State.L || good_toward State.R

let g_of topo =
  Core.Pred.make "G" (fun s ->
      in_rt s
      && List.exists (good_at_general topo s)
        (List.init (State.num_procs s) (fun i -> i)))

let rt_or_c = Core.Pred.union rt c
let fgp = Core.Pred.union_all [ f; g; p ]
let gp = Core.Pred.union g p
let fgp_or_c = Core.Pred.union fgp c
let gp_or_c = Core.Pred.union gp c
let p_or_c = Core.Pred.union p c
