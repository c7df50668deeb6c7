module Q = Proba.Rational

exception No_convergence of string

let no_convergence max_sweeps =
  raise
    (No_convergence
       (Printf.sprintf
          "tick layer did not close after %d sweeps: the automaton \
           has probabilistic zero-time cycles" max_sweeps))

(* The backward induction is shared between general rationals and the
   dyadic fast path: the layer algorithm is a functor over the value
   semiring.  Each instantiation reads one of the arena's exact
   probability planes -- the branch order is the arena's, which is the
   exploration order, so results are bit-identical to the historical
   per-engine conversion path. *)
module type NUM = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val scale : t -> t -> t  (* weight * value *)
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
end

module Num_rational : NUM with type t = Q.t = struct
  type t = Q.t

  let zero = Q.zero
  let one = Q.one
  let add = Q.add
  let scale = Q.mul
  let equal = Q.equal
  let min = Q.min
  let max = Q.max
end

module Num_dyadic : NUM with type t = Proba.Dyadic.t = struct
  type t = Proba.Dyadic.t

  let zero = Proba.Dyadic.zero
  let one = Proba.Dyadic.one
  let add = Proba.Dyadic.add
  let scale = Proba.Dyadic.mul
  let equal = Proba.Dyadic.equal
  let min = Proba.Dyadic.min
  let max = Proba.Dyadic.max
end

module Engine (N : NUM) = struct
  (* The compact form is now just the arena's CSR arrays plus the
     caller-selected probability plane: building it is O(1), no
     per-call conversion or copying. *)
  type compact = {
    n : int;
    target : bool array;
    step_off : int array;
    out_off : int array;
    tgt : int array;
    tick : bool array;
    plane : N.t array;
  }

  let compact (a : _ Arena.t) ~plane ~target =
    if Array.length target <> a.Arena.n then
      invalid_arg "Finite_horizon: target array has wrong length";
    { n = a.Arena.n;
      target;
      step_off = a.Arena.step_off;
      out_off = a.Arena.out_off;
      tgt = a.Arena.tgt;
      tick = a.Arena.tick;
      plane }

  (* Expectation of step [k] under value vector [v]: a left fold over
     the step's branch range, the same association order as the
     historical per-step outcome arrays. *)
  let expectation c v k =
    let acc = ref N.zero in
    for o = c.out_off.(k) to c.out_off.(k + 1) - 1 do
      acc := N.add !acc (N.scale c.plane.(o) v.(c.tgt.(o)))
    done;
    !acc

  (* Precompute the expectations of tick steps against [v_next]; slots
     for non-tick steps stay [N.zero] and are never read. *)
  let fill_tick_exp c tick_exp v_next lo hi =
    for k = lo to hi - 1 do
      if c.tick.(k) then tick_exp.(k) <- expectation c v_next k
    done

  (* One tick layer: given the value vector [v_next] for one tick less
     of budget, compute the fixpoint of
       v(s) = 1                          if target(s)
            | 0                          if no step enabled
            | best over steps:  tick s     -> E_{v_next}
                                non-tick s -> E_v
     iterating Bellman sweeps in place from [init] until unchanged. *)
  let layer_seq c ~best ~init v_next =
    let num_steps = Array.length c.tick in
    let tick_exp = Array.make num_steps N.zero in
    fill_tick_exp c tick_exp v_next 0 num_steps;
    let v = Array.init c.n init in
    let sweep () =
      let changed = ref false in
      for s = 0 to c.n - 1 do
        if not c.target.(s) then begin
          let lo = c.step_off.(s) and hi = c.step_off.(s + 1) in
          if hi > lo then begin
            (* fold in step order, seeded with the first candidate:
               the same association as the historical option fold,
               minus its per-step allocation *)
            let candidate k =
              if c.tick.(k) then tick_exp.(k) else expectation c v k
            in
            let acc = ref (candidate lo) in
            for k = lo + 1 to hi - 1 do
              acc := best !acc (candidate k)
            done;
            let fresh = !acc in
            if not (N.equal fresh v.(s)) then begin
              v.(s) <- fresh;
              changed := true
            end
          end
        end
      done;
      !changed
    in
    let max_sweeps = c.n + 2 in
    (* Poll per sweep, not per state: a sweep is the natural chunk of a
       sequential layer, so a fired deadline aborts mid-layer instead
       of after the whole backward induction. *)
    let rec go k =
      Core.Budget.poll ();
      if k > max_sweeps then no_convergence max_sweeps
      else if sweep () then go (k + 1)
    in
    go 0;
    v

  (* The pooled layer runs Jacobi sweeps (double-buffered: each sweep
     reads only the previous iterate), so every per-state slot is an
     independent write and the result is bit-identical for any pool
     size -- including 1.  Both schedules are Kleene iterations of the
     same monotone layer operator from the same starting vector, so for
     the exact numeric types they converge to the same fixpoint as the
     sequential in-place schedule; Jacobi needs at most one sweep per
     state on a zero-time chain, which stays within the same
     [n + 2] cap. *)
  let layer_par pool c ~best ~init v_next =
    let stop = Core.Budget.deadline_stop () in
    let tick_exp = Array.make (Array.length c.tick) N.zero in
    Parallel.Pool.parallel_for pool ?stop ~n:c.n (fun s ->
        fill_tick_exp c tick_exp v_next c.step_off.(s) c.step_off.(s + 1));
    let cur = ref (Array.init c.n init) in
    let nxt = ref (Array.make c.n N.zero) in
    let sweep () =
      let cur = !cur and nxt = !nxt in
      Parallel.Pool.map_reduce pool ?stop ~n:c.n ~init:false ~combine:( || )
        (fun s ->
            let lo = c.step_off.(s) and hi = c.step_off.(s + 1) in
            if c.target.(s) || hi = lo then begin
              nxt.(s) <- cur.(s);
              false
            end
            else begin
              let candidate k =
                if c.tick.(k) then tick_exp.(k) else expectation c cur k
              in
              let acc = ref (candidate lo) in
              for k = lo + 1 to hi - 1 do
                acc := best !acc (candidate k)
              done;
              let fresh = !acc in
              nxt.(s) <- fresh;
              not (N.equal fresh cur.(s))
            end)
    in
    let max_sweeps = c.n + 2 in
    let rec go k =
      if k > max_sweeps then no_convergence max_sweeps
      else if sweep () then begin
        let t = !cur in
        cur := !nxt;
        nxt := t;
        go (k + 1)
      end
    in
    go 0;
    !cur

  let layer pool c ~best ~init v_next =
    match pool with
    | Some p ->
      (try layer_par p c ~best ~init v_next
       with Parallel.Pool.Cancelled reason ->
         raise (Core.Budget.Deadline_exceeded reason))
    | None -> layer_seq c ~best ~init v_next

  let min_init c s =
    if c.target.(s) then N.one
    else if c.step_off.(s + 1) = c.step_off.(s) then N.zero
    else N.one

  let max_init c s = if c.target.(s) then N.one else N.zero

  (* An explicit [?pool] wins; otherwise the session default installed
     by [--domains] applies. *)
  let resolve_pool = function
    | Some _ as p -> p
    | None -> Parallel.Pool.get_default ()

  let run ?pool arena ~plane ~target ~ticks ~best ~init =
    if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
    let pool = resolve_pool pool in
    let c = compact arena ~plane ~target in
    let v = ref (Array.make c.n N.zero) in
    for _t = 0 to ticks do
      v := layer pool c ~best ~init:(init c) !v
    done;
    !v

  let min_reach ?pool arena ~plane ~target ~ticks =
    run ?pool arena ~plane ~target ~ticks ~best:N.min ~init:min_init

  let max_reach ?pool arena ~plane ~target ~ticks =
    run ?pool arena ~plane ~target ~ticks ~best:N.max ~init:max_init

  let argbest c ~best v_next v =
    Array.init c.n (fun s ->
        let lo = c.step_off.(s) and hi = c.step_off.(s + 1) in
        if c.target.(s) || hi = lo then -1
        else begin
          let best_k = ref 0 in
          let best_v = ref None in
          for k = lo to hi - 1 do
            let candidate =
              expectation c (if c.tick.(k) then v_next else v) k
            in
            match !best_v with
            | None ->
              best_v := Some candidate;
              best_k := k - lo
            | Some cur ->
              if not (N.equal (best cur candidate) cur) then begin
                best_v := Some candidate;
                best_k := k - lo
              end
          done;
          !best_k
        end)

  let min_reach_with_policy ?pool arena ~plane ~target ~ticks =
    if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
    let pool = resolve_pool pool in
    let c = compact arena ~plane ~target in
    let policy = Array.make (ticks + 1) [||] in
    let v = ref (Array.make c.n N.zero) in
    for t = 0 to ticks do
      let fresh = layer pool c ~best:N.min ~init:(min_init c) !v in
      policy.(t) <- argbest c ~best:N.min !v fresh;
      v := fresh
    done;
    (!v, policy)

end

module Exact = Engine (Num_rational)
module Exact_dyadic = Engine (Num_dyadic)

(* ------------------------------------------------------------------ *)
(* Interval-guided exact backward induction: the [Plane.Interval] path
   of [min_reach]/[max_reach].

   Each tick layer is solved in two passes:

   1. an outward-rounded interval fixpoint over the arena's interval
      plane -- pure float-pair Gauss-Seidel sweeps at the exact
      engine's schedule, so the interval vector brackets every exact
      in-place iterate and hence the layer fixpoint;
   2. an exact pass restricted to the *residue*: states whose interval
      did not collapse to a point.  A point interval contains exactly
      one real, necessarily the exact layer value, and that real is a
      double, recovered with [Rational.of_float_exact] -- no Bigint
      work.  The residue recursion runs with point states pinned; by
      monotonicity of the layer operator it converges to exactly the
      restriction of the full exact fixpoint (pin any other fixpoint
      of the restricted system and extending it with the pins yields a
      pre-/post-fixpoint squeezing it against the true limit).

   Results are bit-identical to the pure-exact engines: equal values
   of canonical rationals are structurally equal.  If the interval
   fixpoint fails to close within the [n + 2] sweep cap the whole
   layer falls back to the exact engine (counted in [Plane.stats]);
   the residue recursion keeps the same cap and [No_convergence]
   semantics.  In particular a layer that diverges exactly (zero-time
   probabilistic cycle) can never be fully pinned: its strictly
   monotone exact iterates cannot share one point interval, so the
   diverging states stay in the residue and raise as before.

   All interval quantities here are reach probabilities in [0, 1], so
   the directed products need only the nonnegative corner
   ([lo*lo, hi*hi]) and lower endpoints can never round below 0. *)
module Guided = struct
  module I = Proba.Interval

  type kind = Min | Max

  let run kind (a : _ Arena.t) ~target ~ticks =
    if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
    let n = a.Arena.n in
    if Array.length target <> n then
      invalid_arg "Finite_horizon: target array has wrong length";
    let plo, phi = Arena.interval_plane a in
    let step_off = a.Arena.step_off and out_off = a.Arena.out_off in
    let tgt = a.Arena.tgt and tick = a.Arena.tick in
    let prob_q = a.Arena.prob_q in
    let num_steps = Array.length tick in
    let qbest = match kind with Min -> Q.min | Max -> Q.max in
    let init_point s =
      match kind with
      | Min ->
        if target.(s) then 1.0
        else if step_off.(s + 1) = step_off.(s) then 0.0
        else 1.0
      | Max -> if target.(s) then 1.0 else 0.0
    in
    let init_q s =
      match kind with
      | Min ->
        if target.(s) then Q.one
        else if step_off.(s + 1) = step_off.(s) then Q.zero
        else Q.one
      | Max -> if target.(s) then Q.one else Q.zero
    in
    let maximize = match kind with Min -> false | Max -> true in
    (* Loop-carried interval endpoints live in a scratch float array
       (unboxed, barrier-free stores); refs or function returns would
       box one float per branch.  Slots 0/1: the current step's
       outward sums; slots 2/3: the running best over steps. *)
    let scratch = Array.make 4 0.0 in
    (* interval expectation of step [k] against endpoint arrays
       [xlo]/[xhi], left fold in branch order, into slots 0/1 *)
    let exp_iv xlo xhi k =
      Array.unsafe_set scratch 0 0.0;
      Array.unsafe_set scratch 1 0.0;
      for o = Array.unsafe_get out_off k
              to Array.unsafe_get out_off (k + 1) - 1 do
        let j = Array.unsafe_get tgt o in
        Array.unsafe_set scratch 0
          (I.add_down
             (Array.unsafe_get scratch 0)
             (I.mul_down (Array.unsafe_get plo o) (Array.unsafe_get xlo j)));
        Array.unsafe_set scratch 1
          (I.add_up
             (Array.unsafe_get scratch 1)
             (I.mul_up (Array.unsafe_get phi o) (Array.unsafe_get xhi j)))
      done
    in
    (* tick-step expectation memo for the exact residue pass, filled
       lazily: most tick steps never feed a residue state *)
    let tick_q = Array.make num_steps Q.zero in
    let tick_q_done = Array.make num_steps false in
    let max_sweeps = n + 2 in
    (* one tick layer; [vq]/[vlo]/[vhi] hold the previous layer (one
       tick less of budget), results land in [wq]/[wlo]/[whi] *)
    let run_layer ~vq ~vlo ~vhi ~wq ~wlo ~whi =
      (* interval expectations of tick steps against the previous
         layer are loop constants *)
      let telo = Array.make num_steps 0.0 in
      let tehi = Array.make num_steps 0.0 in
      for k = 0 to num_steps - 1 do
        if Array.unsafe_get tick k then begin
          exp_iv vlo vhi k;
          telo.(k) <- Array.unsafe_get scratch 0;
          tehi.(k) <- Array.unsafe_get scratch 1
        end
      done;
      for s = 0 to n - 1 do
        let p = init_point s in
        wlo.(s) <- p;
        whi.(s) <- p
      done;
      (* loads the candidate interval of step [k] into slots 0/1 *)
      let candidate k =
        if Array.unsafe_get tick k then begin
          Array.unsafe_set scratch 0 (Array.unsafe_get telo k);
          Array.unsafe_set scratch 1 (Array.unsafe_get tehi k)
        end
        else exp_iv wlo whi k
      in
      let sweep () =
        let changed = ref false in
        for s = 0 to n - 1 do
          if not (Array.unsafe_get target s) then begin
            let lo = step_off.(s) and hi = step_off.(s + 1) in
            if hi > lo then begin
              candidate lo;
              Array.unsafe_set scratch 2 (Array.unsafe_get scratch 0);
              Array.unsafe_set scratch 3 (Array.unsafe_get scratch 1);
              for k = lo + 1 to hi - 1 do
                candidate k;
                (* inline componentwise best: the endpoints are
                   reach probabilities in [0, 1] (nan-free, no -0.),
                   where this equals Float.min/Float.max *)
                let cl = Array.unsafe_get scratch 0 in
                let cur = Array.unsafe_get scratch 2 in
                Array.unsafe_set scratch 2
                  (if maximize then (if cl > cur then cl else cur)
                   else if cl < cur then cl
                   else cur);
                let ch = Array.unsafe_get scratch 1 in
                let cur = Array.unsafe_get scratch 3 in
                Array.unsafe_set scratch 3
                  (if maximize then (if ch > cur then ch else cur)
                   else if ch < cur then ch
                   else cur)
              done;
              let l = Array.unsafe_get scratch 2 in
              let h = Array.unsafe_get scratch 3 in
              if not (Float.equal l wlo.(s) && Float.equal h whi.(s))
              then begin
                wlo.(s) <- l;
                whi.(s) <- h;
                changed := true
              end
            end
          end
        done;
        !changed
      in
      let closed =
        let rec go k =
          Core.Budget.poll ();
          if k > max_sweeps then false
          else if sweep () then go (k + 1)
          else true
        in
        go 0
      in
      Array.fill tick_q_done 0 num_steps false;
      let exact_tick_exp k =
        if not tick_q_done.(k) then begin
          let acc = ref Q.zero in
          for o = out_off.(k) to out_off.(k + 1) - 1 do
            acc := Q.add !acc (Q.mul prob_q.(o) vq.(tgt.(o)))
          done;
          tick_q.(k) <- !acc;
          tick_q_done.(k) <- true
        end;
        tick_q.(k)
      in
      if not closed then begin
        (* interval fixpoint would not close: redo the layer exactly *)
        Plane.record_fallback ();
        Plane.record_pass ~points:0 ~residue:n;
        let c = Exact.compact a ~plane:prob_q ~target in
        let v = Exact.layer_seq c ~best:qbest ~init:init_q vq in
        Array.blit v 0 wq 0 n;
        for s = 0 to n - 1 do
          let iv = I.of_rational wq.(s) in
          wlo.(s) <- I.lo iv;
          whi.(s) <- I.hi iv
        done
      end
      else begin
        (* pin points, then iterate the residue exactly *)
        let residue = ref [] and npoints = ref 0 in
        for s = n - 1 downto 0 do
          let l = wlo.(s) in
          if Float.equal l whi.(s) then begin
            (* a point equal to the previous layer's point pins the
               same rational: skip the reconversion *)
            (if Float.equal l vlo.(s) && Float.equal l vhi.(s) then
               wq.(s) <- vq.(s)
             else wq.(s) <- Q.of_float_exact l);
            incr npoints
          end
          else begin
            wq.(s) <- init_q s;
            residue := s :: !residue
          end
        done;
        let residue = !residue in
        (match residue with
         | [] -> ()
         | _ :: _ ->
           let expectation_q k =
             let acc = ref Q.zero in
             for o = out_off.(k) to out_off.(k + 1) - 1 do
               acc := Q.add !acc (Q.mul prob_q.(o) wq.(tgt.(o)))
             done;
             !acc
           in
           let sweep_exact () =
             let changed = ref false in
             List.iter
               (fun s ->
                  if not target.(s) then begin
                    let lo = step_off.(s) and hi = step_off.(s + 1) in
                    if hi > lo then begin
                      let candidate k =
                        if tick.(k) then exact_tick_exp k
                        else expectation_q k
                      in
                      let acc = ref (candidate lo) in
                      for k = lo + 1 to hi - 1 do
                        acc := qbest !acc (candidate k)
                      done;
                      if not (Q.equal !acc wq.(s)) then begin
                        wq.(s) <- !acc;
                        changed := true
                      end
                    end
                  end)
               residue;
             !changed
           in
           let rec go k =
             Core.Budget.poll ();
             if k > max_sweeps then no_convergence max_sweeps
             else if sweep_exact () then go (k + 1)
           in
           go 0;
           (* tighten the residue envelopes to their exact values for
              the next layer's interval pass *)
           List.iter
             (fun s ->
                let iv = I.of_rational wq.(s) in
                wlo.(s) <- I.lo iv;
                whi.(s) <- I.hi iv)
             residue);
        Plane.record_pass ~points:!npoints ~residue:(List.length residue)
      end
    in
    let vq = Array.make n Q.zero and wq = Array.make n Q.zero in
    let vlo = Array.make n 0.0 and vhi = Array.make n 0.0 in
    let wlo = Array.make n 0.0 and whi = Array.make n 0.0 in
    let rec loop t ~vq ~vlo ~vhi ~wq ~wlo ~whi =
      if t > ticks then vq
      else begin
        run_layer ~vq ~vlo ~vhi ~wq ~wlo ~whi;
        (* swap buffers: the fresh layer becomes the previous one *)
        loop (t + 1) ~vq:wq ~vlo:wlo ~vhi:whi ~wq:vq ~wlo:vlo ~whi:vhi
      end
    in
    loop 0 ~vq ~vlo ~vhi ~wq ~wlo ~whi
end

(* All shipped case studies only flip fair coins, so their transition
   probabilities are dyadic and the shift-based arithmetic applies; the
   rational engine remains the fallback for automata with arbitrary
   probabilities.  Both are exact, so results are interchangeable.
   [Arena.dyadic_plane] raises before caching when some probability is
   not dyadic, so the fallback triggers exactly as it did when the
   conversion lived inside the engine. *)
let exact_fast engine_dyadic engine_rational ?pool a ~target ~ticks =
  match Arena.dyadic_plane a with
  | plane ->
    Array.map Proba.Dyadic.to_rational
      (engine_dyadic ?pool a ~plane ~target ~ticks)
  | exception Proba.Dyadic.Not_dyadic _ ->
    engine_rational ?pool a ~plane:a.Arena.prob_q ~target ~ticks

(* [?plane] selects the sweeping strategy only; the returned rationals
   are bit-identical either way.  The guided engine is sequential (its
   exact fixpoints are schedule-independent), so [?pool] applies to
   the exact path only. *)
let min_reach ?pool ?plane a ~target ~ticks =
  match Plane.resolve plane with
  | Plane.Interval -> Guided.run Guided.Min a ~target ~ticks
  | Plane.Exact ->
    exact_fast Exact_dyadic.min_reach Exact.min_reach ?pool a ~target ~ticks

let max_reach ?pool ?plane a ~target ~ticks =
  match Plane.resolve plane with
  | Plane.Interval -> Guided.run Guided.Max a ~target ~ticks
  | Plane.Exact ->
    exact_fast Exact_dyadic.max_reach Exact.max_reach ?pool a ~target ~ticks

let min_reach_with_policy ?pool (a : _ Arena.t) ~target ~ticks =
  Exact.min_reach_with_policy ?pool a ~plane:a.Arena.prob_q ~target ~ticks

(* The rational-only engine, exposed for cross-checking. *)
let min_reach_rational ?pool (a : _ Arena.t) ~target ~ticks =
  Exact.min_reach ?pool a ~plane:a.Arena.prob_q ~target ~ticks

let max_reach_rational ?pool (a : _ Arena.t) ~target ~ticks =
  Exact.max_reach ?pool a ~plane:a.Arena.prob_q ~target ~ticks
