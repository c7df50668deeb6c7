(* A per-state view of an explored fragment's CSR rows: state [i]'s
   steps as [{action; outcomes}] records, in row order, so reference
   code written against per-state step records reads the fragment
   as it is stored. *)

type 'a step = { action : 'a; outcomes : (int * Proba.Rational.t) array }

let steps expl i =
  let step_off = Mdp.Explore.step_off expl in
  let out_off = Mdp.Explore.out_off expl in
  let tgt = Mdp.Explore.tgt expl in
  let prob_q = Mdp.Explore.prob_q expl in
  let actions = Mdp.Explore.actions expl in
  Array.init (step_off.(i + 1) - step_off.(i)) (fun j ->
      let k = step_off.(i) + j in
      { action = actions.(k);
        outcomes =
          Array.init (out_off.(k + 1) - out_off.(k)) (fun b ->
              let o = out_off.(k) + b in
              (tgt.(o), prob_q.(o))) })
