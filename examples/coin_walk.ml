(* Third case study: a shared-coin random walk, and an honest look at
   when the paper's composition method is loose.

   Run with:  dune exec examples/coin_walk.exe [-- N BOUND]

   n processes add fair ±1 coin flips to a shared counter; deciding
   when it hits ±bound.  The Unit-Time discipline forces at least n
   flips per time unit.  The paper's ladder method proves

       any state  -bound->_{2^-bound}  decided

   which is valid under every adversary -- but the walk's exit time is
   really bound^2 flips in expectation no matter how the adversary
   schedules, i.e. about bound^2/n time units.  Exact model checking
   recovers that sharp law; the composed bound is exponentially shy of
   it.  Knowing which regime an algorithm is in is part of using the
   method well. *)

module Q = Proba.Rational
module SC = Shared_coin

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2 in
  let bound =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4
  in
  Printf.printf "== shared coin: n = %d processes, barrier = ±%d ==\n\n" n
    bound;
  let inst = SC.Proof.build ~n ~bound () in
  Printf.printf "reachable states: %d\n\n"
    (Mdp.Explore.num_states inst.SC.Proof.expl);

  print_endline "the ladder (each rung exhaustively checked):";
  List.iter
    (fun a ->
       Format.printf "  %-4s attained %-8s (%s)@." a.SC.Proof.label
         (Q.to_string a.SC.Proof.attained)
         (match a.SC.Proof.claim with Some _ -> "holds" | None -> "FAILS"))
    (SC.Proof.arrows inst);

  (match SC.Proof.composed inst with
   | Error e -> Printf.printf "composition failed: %s\n" e
   | Ok claim ->
     Format.printf "@.composed:     %a@." Core.Claim.pp claim;
     Format.printf "direct check:  min P[decided within %d] = %s@." bound
       (Q.to_string (SC.Proof.direct_bound inst)));

  Printf.printf "\nexpected decision time:\n";
  Printf.printf "  exact worst case (value iteration): %.3f units\n"
    (SC.Proof.expected_exact inst);
  Printf.printf "  classical law bound^2/n:            %.3f units\n"
    (SC.Proof.expected_theory inst);
  Printf.printf "  liveness (decides a.s.):            %b\n"
    (SC.Proof.liveness_holds inst);

  (* The adversary cannot bias the outcome, only the speed. *)
  let arena = inst.SC.Proof.arena in
  let plus = Core.Pred.make "+" (fun s -> s.SC.Automaton.counter >= bound) in
  let target = Mdp.Arena.indicator arena plus in
  let horizon = 20 * bound * bound in
  (* Dyadic exact sweep: 0.05 s; the default interval plane takes 43 s. *)
  let vmin =
    Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Exact arena ~target
      ~ticks:horizon
  in
  let vmax =
    Mdp.Finite_horizon.max_reach ~plane:Mdp.Plane.Exact arena ~target
      ~ticks:horizon
  in
  let i =
    Option.get
      (Mdp.Arena.index arena (SC.Automaton.start inst.SC.Proof.params))
  in
  Printf.printf
    "\nP[decide +%d] across all adversaries: min %.6f, max %.6f\n" bound
    (Q.to_float vmin.(i)) (Q.to_float vmax.(i));
  print_endline "(the adversary schedules, but cannot steer the coin)"
