(* Value iteration over the arena's float plane.  The historical code
   converted each rational weight with [Q.to_float] on every access in
   the inner loop; the arena precomputes exactly that conversion into
   [prob_f], so the sums below see the same doubles in the same order
   and the fixpoints are bit-identical -- just without the per-access
   conversion cost. *)

let expectation (a : _ Arena.t) v k =
  let acc = ref 0.0 in
  for o = a.Arena.out_off.(k) to a.Arena.out_off.(k + 1) - 1 do
    acc := !acc +. (a.Arena.prob_f.(o) *. v.(a.Arena.tgt.(o)))
  done;
  !acc

let state_value (a : _ Arena.t) ~finite ~target v i =
  if target.(i) then 0.0
  else if not finite.(i) then infinity
  else begin
    let lo = a.Arena.step_off.(i) and hi = a.Arena.step_off.(i + 1) in
    if hi = lo then infinity
    else begin
      let candidate k =
        let cost = if a.Arena.tick.(k) then 1.0 else 0.0 in
        cost +. expectation a v k
      in
      let acc = ref (candidate lo) in
      for k = lo + 1 to hi - 1 do
        acc := Float.max !acc (candidate k)
      done;
      !acc
    end
  end

(* The sequential sweep is the hot loop of the [e3] kernel, so it is
   written allocation-free: CSR arrays hoisted into locals, bounds
   checks elided (offsets are trusted by construction), folds carried
   in unboxed float accumulators.  The arithmetic -- a left fold
   [acc +. p *. v] per step in branch order, then a left [Float.max]
   fold over steps seeded with the first candidate -- is the exact
   operation sequence of the historical option-fold code, so fixpoints
   are bit-identical. *)
let value_iterate_seq (a : _ Arena.t) ~finite ~target ~epsilon
    ~max_sweeps =
  let n = a.Arena.n in
  let step_off = a.Arena.step_off and out_off = a.Arena.out_off in
  let tgt = a.Arena.tgt and prob_f = a.Arena.prob_f in
  let tick = a.Arena.tick in
  let v =
    Array.init n (fun i ->
        if target.(i) then 0.0
        else if finite.(i) then 0.0
        else infinity)
  in
  (* Loop-carried floats live in a scratch float array: float-array
     stores are unboxed (and barrier-free), whereas refs and function
     arguments would box one float per branch.  Slot 0 carries the
     running best over steps, slot 1 the branch-sum of the current
     step, slot 2 the sweep delta.  The [-inf] seed and the inlined
     comparison return the same values as the historical seeded
     [Float.max] fold: the iterates are nan-free and never produce
     [-0.], the only inputs where the formulations differ. *)
  let scratch = Array.make 3 0.0 in
  let state i lo hi =
    Array.unsafe_set scratch 0 neg_infinity;
    for k = lo to hi - 1 do
      Array.unsafe_set scratch 1 0.0;
      for o = Array.unsafe_get out_off k
              to Array.unsafe_get out_off (k + 1) - 1 do
        Array.unsafe_set scratch 1
          (Array.unsafe_get scratch 1
           +. Array.unsafe_get prob_f o
              *. Array.unsafe_get v (Array.unsafe_get tgt o))
      done;
      let e =
        (if Array.unsafe_get tick k then 1.0 else 0.0)
        +. Array.unsafe_get scratch 1
      in
      let cur = Array.unsafe_get scratch 0 in
      Array.unsafe_set scratch 0 (if e > cur then e else cur)
    done;
    let fresh = Array.unsafe_get scratch 0 in
    let d = Float.abs (fresh -. Array.unsafe_get v i) in
    if d > Array.unsafe_get scratch 2 then Array.unsafe_set scratch 2 d;
    Array.unsafe_set v i fresh
  in
  let sweep () =
    Array.unsafe_set scratch 2 0.0;
    for i = 0 to n - 1 do
      if (not (Array.unsafe_get target i)) && Array.unsafe_get finite i
      then begin
        let lo = Array.unsafe_get step_off i in
        let hi = Array.unsafe_get step_off (i + 1) in
        if hi > lo then state i lo hi else v.(i) <- infinity
      end
    done;
    Array.unsafe_get scratch 2
  in
  let rec go k =
    Core.Budget.poll ();
    if k > max_sweeps then
      failwith "Expected_time: value iteration did not converge"
    else if sweep () > epsilon then go (k + 1)
  in
  go 0;
  v

(* Pooled variant: double-buffered Jacobi sweeps.  Each state update
   reads only the previous iterate and the per-sweep delta is combined
   with [Float.max] (associative and order-independent), so the result
   is bit-identical for any pool size. *)
let value_iterate_par pool (a : _ Arena.t) ~finite ~target ~epsilon
    ~max_sweeps =
  let n = a.Arena.n in
  let init i =
    if target.(i) then 0.0 else if finite.(i) then 0.0 else infinity
  in
  let stop = Core.Budget.deadline_stop () in
  let cur = ref (Array.init n init) in
  let nxt = ref (Array.make n 0.0) in
  let sweep () =
    let cur = !cur and nxt = !nxt in
    Parallel.Pool.map_reduce pool ?stop ~n ~init:0.0 ~combine:Float.max
      (fun i ->
         if (not target.(i)) && finite.(i)
            && a.Arena.step_off.(i + 1) > a.Arena.step_off.(i)
         then begin
           let fresh = state_value a ~finite ~target cur i in
           nxt.(i) <- fresh;
           Float.abs (fresh -. cur.(i))
         end
         else begin
           nxt.(i) <- init i;
           0.0
         end)
  in
  let rec go k =
    if k > max_sweeps then
      failwith "Expected_time: value iteration did not converge"
    else if sweep () > epsilon then begin
      let t = !cur in
      cur := !nxt;
      nxt := t;
      go (k + 1)
    end
    else cur := !nxt
  in
  go 0;
  !cur

let value_iterate ?pool a ~finite ~target ~epsilon ~max_sweeps =
  let pool =
    match pool with Some _ -> pool | None -> Parallel.Pool.get_default ()
  in
  match pool with
  | Some p ->
    (try
       value_iterate_par p a ~finite ~target ~epsilon ~max_sweeps
     with Parallel.Pool.Cancelled reason ->
       raise (Core.Budget.Deadline_exceeded reason))
  | None -> value_iterate_seq a ~finite ~target ~epsilon ~max_sweeps

let max_expected_ticks ?pool a ~target ?(epsilon = 1e-12)
    ?(max_sweeps = 1_000_000) () =
  let finite = Qualitative.always_reaches a ~target in
  value_iterate ?pool a ~finite ~target ~epsilon ~max_sweeps

let max_expected_ticks_with_policy ?pool (a : _ Arena.t) ~target
    ?(epsilon = 1e-12) ?(max_sweeps = 1_000_000) () =
  let finite = Qualitative.always_reaches a ~target in
  let v = value_iterate ?pool a ~finite ~target ~epsilon ~max_sweeps in
  let n = a.Arena.n in
  let policy =
    Array.init n (fun i ->
        if target.(i) || not finite.(i) then -1
        else begin
          let lo = a.Arena.step_off.(i) and hi = a.Arena.step_off.(i + 1) in
          if hi = lo then -1
          else begin
            let best_k = ref 0 and best_v = ref neg_infinity in
            for k = lo to hi - 1 do
              let cost = if a.Arena.tick.(k) then 1.0 else 0.0 in
              let e = cost +. expectation a v k in
              if e > !best_v then begin
                best_v := e;
                best_k := k - lo
              end
            done;
            !best_k
          end
        end)
  in
  (v, policy)
