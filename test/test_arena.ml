(* Differential tests for the compiled arena: every engine result must
   be identical -- structurally equal rationals, bit-identical floats
   -- to the pre-refactor path that walked per-state step records with
   an [~is_tick] closure.  The [Legacy] module below is that path,
   copied verbatim from the tree as it stood before the arena landed
   (it reads the fragment's rows per state through
   [Test_support.Step_view]), so any divergence introduced by the CSR
   layout or by the engines' new inner loops fails here first. *)

module Q = Proba.Rational
module P = Parallel.Pool
module LR = Lehmann_rabin
module IR = Itai_rodeh
module SC = Shared_coin
module BO = Ben_or
module Step_view = Test_support.Step_view

let with_pool domains f =
  let pool = P.create ~domains in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* The pre-refactor engines (reference implementations) *)

module Legacy = struct
  module Explore = struct
    include Mdp.Explore
    include Test_support.Step_view
  end

  exception No_convergence of string

  module type NUM = sig
    type t

    val zero : t
    val one : t
    val of_rational : Q.t -> t
    val add : t -> t -> t
    val scale : t -> t -> t
    val equal : t -> t -> bool
    val min : t -> t -> t
    val max : t -> t -> t
  end

  module Num_rational : NUM with type t = Q.t = struct
    type t = Q.t

    let zero = Q.zero
    let one = Q.one
    let of_rational q = q
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
    let of_rational = Proba.Dyadic.of_rational
    let add = Proba.Dyadic.add
    let scale = Proba.Dyadic.mul
    let equal = Proba.Dyadic.equal
    let min = Proba.Dyadic.min
    let max = Proba.Dyadic.max
  end

  module Num_float : NUM with type t = float = struct
    type t = float

    let zero = 0.0
    let one = 1.0
    let of_rational = Q.to_float
    let add = ( +. )
    let scale = ( *. )
    let equal a b = Float.equal a b
    let min = Float.min
    let max = Float.max
  end

  module Engine (N : NUM) = struct
    type compact = {
      n : int;
      target : bool array;
      steps : (bool * (int * N.t) array) array array;
    }

    let pfor pool ~n f =
      match pool with
      | Some p -> P.parallel_for p ~n f
      | None ->
        for i = 0 to n - 1 do
          f i
        done

    let compact ?pool expl ~is_tick ~target =
      let n = Explore.num_states expl in
      if Array.length target <> n then
        invalid_arg "Finite_horizon: target array has wrong length";
      let steps = Array.make n [||] in
      pfor pool ~n (fun i ->
          steps.(i) <-
            Array.map
              (fun s ->
                 ( is_tick s.Explore.action,
                   Array.map
                     (fun (j, w) -> (j, N.of_rational w))
                     s.Explore.outcomes ))
              (Explore.steps expl i));
      { n; target; steps }

    let expectation v outcomes =
      Array.fold_left
        (fun acc (j, w) -> N.add acc (N.scale w v.(j)))
        N.zero outcomes

    let no_convergence max_sweeps =
      raise
        (No_convergence
           (Printf.sprintf "tick layer did not close after %d sweeps"
              max_sweeps))

    let layer_seq c ~best ~init v_next =
      let tick_exp =
        Array.map
          (Array.map (fun (tick, outcomes) ->
               if tick then Some (expectation v_next outcomes) else None))
          c.steps
      in
      let v = Array.init c.n init in
      let sweep () =
        let changed = ref false in
        for s = 0 to c.n - 1 do
          if not c.target.(s) then begin
            let stps = c.steps.(s) in
            if Array.length stps > 0 then begin
              let value = ref None in
              Array.iteri
                (fun k (_tick, outcomes) ->
                   let candidate =
                     match tick_exp.(s).(k) with
                     | Some e -> e
                     | None -> expectation v outcomes
                   in
                   match !value with
                   | None -> value := Some candidate
                   | Some cur -> value := Some (best cur candidate))
                stps;
              match !value with
              | None -> ()
              | Some fresh ->
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
      let rec go k =
        if k > max_sweeps then no_convergence max_sweeps
        else if sweep () then go (k + 1)
      in
      go 0;
      v

    let layer_par pool c ~best ~init v_next =
      let tick_exp = Array.make c.n [||] in
      P.parallel_for pool ~n:c.n (fun s ->
          tick_exp.(s) <-
            Array.map
              (fun (tick, outcomes) ->
                 if tick then Some (expectation v_next outcomes) else None)
              c.steps.(s));
      let cur = ref (Array.init c.n init) in
      let nxt = ref (Array.make c.n N.zero) in
      let sweep () =
        let cur = !cur and nxt = !nxt in
        P.map_reduce pool ~n:c.n ~init:false ~combine:( || ) (fun s ->
            if c.target.(s) || Array.length c.steps.(s) = 0 then begin
              nxt.(s) <- cur.(s);
              false
            end
            else begin
              let value = ref None in
              Array.iteri
                (fun k (_tick, outcomes) ->
                   let candidate =
                     match tick_exp.(s).(k) with
                     | Some e -> e
                     | None -> expectation cur outcomes
                   in
                   match !value with
                   | None -> value := Some candidate
                   | Some acc -> value := Some (best acc candidate))
                c.steps.(s);
              let fresh = Option.get !value in
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
      | Some p -> layer_par p c ~best ~init v_next
      | None -> layer_seq c ~best ~init v_next

    let min_init c s =
      if c.target.(s) then N.one
      else if Array.length c.steps.(s) = 0 then N.zero
      else N.one

    let max_init c s = if c.target.(s) then N.one else N.zero

    let run ?pool expl ~is_tick ~target ~ticks ~best ~init =
      if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
      let c = compact ?pool expl ~is_tick ~target in
      let v = ref (Array.make c.n N.zero) in
      for _t = 0 to ticks do
        v := layer pool c ~best ~init:(init c) !v
      done;
      !v

    let min_reach ?pool expl ~is_tick ~target ~ticks =
      run ?pool expl ~is_tick ~target ~ticks ~best:N.min ~init:min_init

    let max_reach ?pool expl ~is_tick ~target ~ticks =
      run ?pool expl ~is_tick ~target ~ticks ~best:N.max ~init:max_init

    let argbest c ~best v_next v =
      Array.init c.n (fun s ->
          if c.target.(s) || Array.length c.steps.(s) = 0 then -1
          else begin
            let best_k = ref 0 in
            let best_v = ref None in
            Array.iteri
              (fun k (tick, outcomes) ->
                 let candidate =
                   expectation (if tick then v_next else v) outcomes
                 in
                 match !best_v with
                 | None ->
                   best_v := Some candidate;
                   best_k := k
                 | Some cur ->
                   if not (N.equal (best cur candidate) cur) then begin
                     best_v := Some candidate;
                     best_k := k
                   end)
              c.steps.(s);
            !best_k
          end)

    let min_reach_with_policy ?pool expl ~is_tick ~target ~ticks =
      if ticks < 0 then invalid_arg "Finite_horizon: negative tick horizon";
      let c = compact ?pool expl ~is_tick ~target in
      let policy = Array.make (ticks + 1) [||] in
      let v = ref (Array.make c.n N.zero) in
      for t = 0 to ticks do
        let fresh = layer pool c ~best:N.min ~init:(min_init c) !v in
        policy.(t) <- argbest c ~best:N.min !v fresh;
        v := fresh
      done;
      (!v, policy)

    let run_steps ?pool expl ~target ~steps ~best =
      if steps < 0 then invalid_arg "Finite_horizon: negative step horizon";
      let n = Explore.num_states expl in
      if Array.length target <> n then
        invalid_arg "Finite_horizon: target array has wrong length";
      let c = compact ?pool expl ~is_tick:(fun _ -> false) ~target in
      let v =
        ref (Array.init n (fun s -> if target.(s) then N.one else N.zero))
      in
      for _k = 1 to steps do
        let prev = !v in
        let fresh = Array.make n N.zero in
        pfor pool ~n (fun s ->
            fresh.(s) <-
              (if target.(s) then N.one
               else begin
                 let stps = c.steps.(s) in
                 if Array.length stps = 0 then N.zero
                 else
                   Array.fold_left
                     (fun acc (_, outcomes) ->
                        let e = expectation prev outcomes in
                        match acc with
                        | None -> Some e
                        | Some cur -> Some (best cur e))
                     None stps
                   |> Option.get
               end));
        v := fresh
      done;
      !v

    let min_reach_steps ?pool expl ~target ~steps =
      run_steps ?pool expl ~target ~steps ~best:N.min

    let max_reach_steps ?pool expl ~target ~steps =
      run_steps ?pool expl ~target ~steps ~best:N.max
  end

  module Exact = Engine (Num_rational)
  module Exact_dyadic = Engine (Num_dyadic)
  module Approx = Engine (Num_float)

  let exact_fast engine_dyadic engine_rational ?pool expl ~is_tick ~target
      ~ticks =
    match engine_dyadic ?pool expl ~is_tick ~target ~ticks with
    | values -> Array.map Proba.Dyadic.to_rational values
    | exception Proba.Dyadic.Not_dyadic _ ->
      engine_rational ?pool expl ~is_tick ~target ~ticks

  let min_reach ?pool expl ~is_tick ~target ~ticks =
    exact_fast Exact_dyadic.min_reach Exact.min_reach ?pool expl ~is_tick
      ~target ~ticks

  let max_reach ?pool expl ~is_tick ~target ~ticks =
    exact_fast Exact_dyadic.max_reach Exact.max_reach ?pool expl ~is_tick
      ~target ~ticks

  let min_reach_with_policy = Exact.min_reach_with_policy
  let min_reach_rational = Exact.min_reach
  let min_reach_steps = Exact.min_reach_steps
  let max_reach_steps = Exact.max_reach_steps
  let min_reach_float = Approx.min_reach
  let max_reach_float = Approx.max_reach

  (* Pre-refactor qualitative fixpoints *)

  let safe_core expl ~avoid =
    let n = Explore.num_states expl in
    let s = Array.copy avoid in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if s.(i) then begin
          let steps = Explore.steps expl i in
          let ok =
            Array.length steps = 0
            || Array.exists
                 (fun step ->
                    Array.for_all (fun (j, _) -> s.(j)) step.Explore.outcomes)
                 steps
          in
          if not ok then begin
            s.(i) <- false;
            changed := true
          end
        end
      done
    done;
    s

  let can_avoid expl ~target =
    let n = Explore.num_states expl in
    let avoid = Array.map not target in
    let core = safe_core expl ~avoid in
    let bad = Array.copy core in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if (not bad.(i)) && avoid.(i) then begin
          let steps = Explore.steps expl i in
          let reaches_bad =
            Array.exists
              (fun step ->
                 Array.exists (fun (j, _) -> bad.(j)) step.Explore.outcomes)
              steps
          in
          if reaches_bad then begin
            bad.(i) <- true;
            changed := true
          end
        end
      done
    done;
    bad

  let always_reaches expl ~target = Array.map not (can_avoid expl ~target)

  let some_reaches_certainly expl ~target =
    let n = Explore.num_states expl in
    let s_set = Array.make n true in
    let outer_changed = ref true in
    while !outer_changed do
      let r = Array.copy target in
      let inner_changed = ref true in
      while !inner_changed do
        inner_changed := false;
        for i = 0 to n - 1 do
          if (not r.(i)) && s_set.(i) then begin
            let good step =
              Array.for_all (fun (j, _) -> s_set.(j)) step.Explore.outcomes
              && Array.exists (fun (j, _) -> r.(j)) step.Explore.outcomes
            in
            if Array.exists good (Explore.steps expl i) then begin
              r.(i) <- true;
              inner_changed := true
            end
          end
        done
      done;
      outer_changed := not (Array.for_all2 ( = ) s_set r);
      Array.blit r 0 s_set 0 n
    done;
    s_set

  (* Pre-refactor expected-time value iteration *)

  let et_expectation v outcomes =
    Array.fold_left
      (fun acc (j, w) -> acc +. (Q.to_float w *. v.(j)))
      0.0 outcomes

  let state_value expl ~is_tick ~finite ~target ~best v i =
    if target.(i) then 0.0
    else if not finite.(i) then infinity
    else begin
      let steps = Explore.steps expl i in
      if Array.length steps = 0 then infinity
      else
        Array.fold_left
          (fun acc step ->
             let cost = if is_tick step.Explore.action then 1.0 else 0.0 in
             let e = cost +. et_expectation v step.Explore.outcomes in
             match acc with
             | None -> Some e
             | Some cur -> Some (best cur e))
          None steps
        |> Option.get
    end

  let value_iterate_seq expl ~is_tick ~finite ~target ~best ~epsilon
      ~max_sweeps =
    let n = Explore.num_states expl in
    let v =
      Array.init n (fun i ->
          if target.(i) then 0.0 else if finite.(i) then 0.0 else infinity)
    in
    let sweep () =
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        if (not target.(i)) && finite.(i) then begin
          let steps = Explore.steps expl i in
          if Array.length steps > 0 then begin
            let fresh =
              state_value expl ~is_tick ~finite ~target ~best v i
            in
            let d = Float.abs (fresh -. v.(i)) in
            if d > !delta then delta := d;
            v.(i) <- fresh
          end
          else v.(i) <- infinity
        end
      done;
      !delta
    in
    let rec go k =
      if k > max_sweeps then
        failwith "Expected_time: value iteration did not converge"
      else if sweep () > epsilon then go (k + 1)
    in
    go 0;
    v

  let value_iterate_par pool expl ~is_tick ~finite ~target ~best ~epsilon
      ~max_sweeps =
    let n = Explore.num_states expl in
    let init i =
      if target.(i) then 0.0 else if finite.(i) then 0.0 else infinity
    in
    let cur = ref (Array.init n init) in
    let nxt = ref (Array.make n 0.0) in
    let sweep () =
      let cur = !cur and nxt = !nxt in
      P.map_reduce pool ~n ~init:0.0 ~combine:Float.max (fun i ->
          if
            (not target.(i))
            && finite.(i)
            && Array.length (Explore.steps expl i) > 0
          then begin
            let fresh =
              state_value expl ~is_tick ~finite ~target ~best cur i
            in
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

  let value_iterate ?pool expl ~is_tick ~finite ~target ~best =
    let epsilon = 1e-12 and max_sweeps = 1_000_000 in
    match pool with
    | Some p ->
      value_iterate_par p expl ~is_tick ~finite ~target ~best ~epsilon
        ~max_sweeps
    | None ->
      value_iterate_seq expl ~is_tick ~finite ~target ~best ~epsilon
        ~max_sweeps

  let max_expected_ticks ?pool expl ~is_tick ~target () =
    let finite = always_reaches expl ~target in
    value_iterate ?pool expl ~is_tick ~finite ~target ~best:Float.max

  let min_expected_ticks ?pool expl ~is_tick ~target () =
    let finite = some_reaches_certainly expl ~target in
    value_iterate ?pool expl ~is_tick ~finite ~target ~best:Float.min

  let max_expected_ticks_with_policy expl ~is_tick ~target () =
    let finite = always_reaches expl ~target in
    let v = value_iterate expl ~is_tick ~finite ~target ~best:Float.max in
    let n = Explore.num_states expl in
    let policy =
      Array.init n (fun i ->
          if target.(i) || not finite.(i) then -1
          else begin
            let steps = Explore.steps expl i in
            if Array.length steps = 0 then -1
            else begin
              let best_k = ref 0 and best_v = ref neg_infinity in
              Array.iteri
                (fun k step ->
                   let cost =
                     if is_tick step.Explore.action then 1.0 else 0.0
                   in
                   let e = cost +. et_expectation v step.Explore.outcomes in
                   if e > !best_v then begin
                     best_v := e;
                     best_k := k
                   end)
                steps;
              !best_k
            end
          end)
    in
    (v, policy)
end

(* ------------------------------------------------------------------ *)
(* Fixtures: all four case studies, resolved through the registry so
   the suite shares explorations with nothing re-run. *)

type fixture = Fixture : {
  name : string;
  expl : ('s, 'a) Mdp.Explore.t;
  arena : ('s, 'a) Mdp.Arena.t;
  is_tick : 'a -> bool;
  target : bool array;
  ticks : int;
} -> fixture

let fixtures =
  lazy
    (let get ?bound ~model ~n () =
       Models.get (Models.config ?bound ~model ~n ())
     in
     let lr = get ~model:`Lr ~n:3 () in
     let ir = get ~model:`Election ~n:3 () in
     let sc = get ~bound:3 ~model:`Coin ~n:2 () in
     let bo = get ~model:`Consensus ~n:3 () in
     match lr, ir, sc, bo with
     | Models.Lr lr, Models.Election ir, Models.Coin sc, Models.Consensus bo ->
     [ Fixture
         { name = "lr";
           expl = lr.LR.Proof.expl;
           arena = lr.LR.Proof.arena;
           is_tick = LR.Automaton.is_tick;
           target = Mdp.Explore.indicator lr.LR.Proof.expl LR.Regions.c;
           ticks = 5 };
       Fixture
         { name = "election";
           expl = ir.IR.Proof.expl;
           arena = ir.IR.Proof.arena;
           is_tick = IR.Automaton.is_tick;
           target =
             Mdp.Explore.indicator ir.IR.Proof.expl
               (Core.Pred.make "elected" IR.Automaton.leader_elected);
           ticks = 6 };
       Fixture
         { name = "coin";
           expl = sc.SC.Proof.expl;
           arena = sc.SC.Proof.arena;
           is_tick = SC.Automaton.is_tick;
           target =
             Mdp.Explore.indicator sc.SC.Proof.expl
               (Core.Pred.make "decided"
                  (SC.Automaton.decided sc.SC.Proof.params));
           ticks = 8 };
       Fixture
         { name = "consensus";
           expl = bo.BO.Proof.expl;
           arena = bo.BO.Proof.arena;
           is_tick = BO.Automaton.is_tick;
           target =
             Mdp.Explore.indicator bo.BO.Proof.expl
               (Core.Pred.make "decided" BO.Automaton.some_decided);
           ticks = 4 } ]
     | _ -> assert false)

(* Structural equality, not [Q.equal]: the claim is bit-identity of
   the representation, which is strictly stronger. *)
let check_q_arrays name (expected : Q.t array) (got : Q.t array) =
  Alcotest.(check int) (name ^ ": length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i x ->
       if not (x = got.(i)) then
         Alcotest.failf "%s: state %d: %s vs %s" name i (Q.to_string x)
           (Q.to_string got.(i)))
    expected

let check_float_arrays name (expected : float array) (got : float array) =
  Alcotest.(check int) (name ^ ": length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i x ->
       (* [Float.equal] so that infinity = infinity and nan = nan. *)
       if not (Float.equal x got.(i)) then
         Alcotest.failf "%s: state %d: %h vs %h" name i x got.(i))
    expected

let check_int_arrays name (expected : int array) (got : int array) =
  Alcotest.(check (array int)) name expected got

(* ------------------------------------------------------------------ *)
(* Finite horizon: exact, rational-only, and float engines, sequential
   and at every pool size [--domains] accepts in the test matrix. *)

let pools = [ None; Some 1; Some 2; Some 3 ]

let pool_label = function
  | None -> "seq"
  | Some d -> Printf.sprintf "%d domains" d

let with_opt_pool d f =
  match d with None -> f None | Some d -> with_pool d (fun p -> f (Some p))

let test_reach_differential () =
  List.iter
    (fun (Fixture f) ->
       List.iter
         (fun d ->
            with_opt_pool d (fun pool ->
                let ctx what =
                  Printf.sprintf "%s %s (%s)" f.name what (pool_label d)
                in
                check_q_arrays (ctx "min_reach")
                  (Legacy.min_reach ?pool f.expl ~is_tick:f.is_tick
                     ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.min_reach ?pool f.arena
                     ~target:f.target ~ticks:f.ticks);
                check_q_arrays (ctx "max_reach")
                  (Legacy.max_reach ?pool f.expl ~is_tick:f.is_tick
                     ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.max_reach ?pool f.arena
                     ~target:f.target ~ticks:f.ticks);
                check_float_arrays (ctx "min_reach_float")
                  (Legacy.min_reach_float ?pool f.expl ~is_tick:f.is_tick
                     ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.min_reach_float ?pool f.arena
                     ~target:f.target ~ticks:f.ticks);
                check_float_arrays (ctx "max_reach_float")
                  (Legacy.max_reach_float ?pool f.expl ~is_tick:f.is_tick
                     ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.max_reach_float ?pool f.arena
                     ~target:f.target ~ticks:f.ticks)))
         pools)
    (Lazy.force fixtures)

let test_rational_only_differential () =
  (* The rational-only engine bypasses the dyadic fast path on both
     sides; one model suffices to pin the pure-[Q] inner loop. *)
  List.iter
    (fun d ->
       with_opt_pool d (fun pool ->
           let (Fixture f) = List.hd (Lazy.force fixtures) in
           check_q_arrays
             (Printf.sprintf "lr min_reach_rational (%s)" (pool_label d))
             (Legacy.min_reach_rational ?pool f.expl ~is_tick:f.is_tick
                ~target:f.target ~ticks:f.ticks)
             (Mdp.Finite_horizon.min_reach_rational ?pool f.arena
                ~target:f.target ~ticks:f.ticks)))
    pools

let test_reach_steps_differential () =
  List.iter
    (fun (Fixture f) ->
       check_q_arrays (f.name ^ " min_reach_steps")
         (Legacy.min_reach_steps f.expl ~target:f.target ~steps:f.ticks)
         (Mdp.Finite_horizon.min_reach_steps f.arena ~target:f.target
            ~steps:f.ticks);
       check_q_arrays (f.name ^ " max_reach_steps")
         (Legacy.max_reach_steps f.expl ~target:f.target ~steps:f.ticks)
         (Mdp.Finite_horizon.max_reach_steps f.arena ~target:f.target
            ~steps:f.ticks))
    (Lazy.force fixtures)

let test_policy_differential () =
  List.iter
    (fun (Fixture f) ->
       let v0, p0 =
         Legacy.min_reach_with_policy f.expl ~is_tick:f.is_tick
           ~target:f.target ~ticks:3
       in
       let v1, p1 =
         Mdp.Finite_horizon.min_reach_with_policy f.arena ~target:f.target
           ~ticks:3
       in
       check_q_arrays (f.name ^ " policy values") v0 v1;
       Alcotest.(check int)
         (f.name ^ " policy layers")
         (Array.length p0) (Array.length p1);
       Array.iteri
         (fun t row ->
            check_int_arrays
              (Printf.sprintf "%s policy layer %d" f.name t)
              row p1.(t))
         p0)
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Qualitative fixpoints *)

let test_qualitative_differential () =
  List.iter
    (fun (Fixture f) ->
       let check name a b =
         Alcotest.(check (array bool)) (f.name ^ " " ^ name) a b
       in
       check "always_reaches"
         (Legacy.always_reaches f.expl ~target:f.target)
         (Mdp.Qualitative.always_reaches f.arena ~target:f.target);
       check "some_reaches_certainly"
         (Legacy.some_reaches_certainly f.expl ~target:f.target)
         (Mdp.Qualitative.some_reaches_certainly f.arena ~target:f.target);
       let avoid = Array.map not f.target in
       check "safe_core"
         (Legacy.safe_core f.expl ~avoid)
         (Mdp.Qualitative.safe_core f.arena ~avoid))
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Expected time *)

let test_expected_time_differential () =
  List.iter
    (fun (Fixture f) ->
       List.iter
         (fun d ->
            with_opt_pool d (fun pool ->
                let ctx what =
                  Printf.sprintf "%s %s (%s)" f.name what (pool_label d)
                in
                check_float_arrays (ctx "max_expected_ticks")
                  (Legacy.max_expected_ticks ?pool f.expl
                     ~is_tick:f.is_tick ~target:f.target ())
                  (Mdp.Expected_time.max_expected_ticks ?pool f.arena
                     ~target:f.target ());
                check_float_arrays (ctx "min_expected_ticks")
                  (Legacy.min_expected_ticks ?pool f.expl
                     ~is_tick:f.is_tick ~target:f.target ())
                  (Mdp.Expected_time.min_expected_ticks ?pool f.arena
                     ~target:f.target ())))
         [ None; Some 2 ];
       let v0, p0 =
         Legacy.max_expected_ticks_with_policy f.expl ~is_tick:f.is_tick
           ~target:f.target ()
       in
       let v1, p1 =
         Mdp.Expected_time.max_expected_ticks_with_policy f.arena
           ~target:f.target ()
       in
       check_float_arrays (f.name ^ " policy values") v0 v1;
       check_int_arrays (f.name ^ " expected-time policy") p0 p1)
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Budgeted partial fragments: the arena must preserve the frontier's
   stuck-state semantics, so values on a partial fragment match the
   legacy engines on the same fragment. *)

let test_partial_fragment_differential () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let partial =
    Mdp.Explore.run_budgeted ~budget:(Core.Budget.v ~max_states:500 ()) pa
  in
  Alcotest.(check bool) "fragment is partial" false partial.Mdp.Explore.complete;
  Alcotest.(check bool) "nonempty frontier" true
    (partial.Mdp.Explore.frontier > 0);
  let expl = partial.Mdp.Explore.fragment in
  let arena = Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick expl in
  Alcotest.(check int) "arena mirrors frontier"
    (Mdp.Explore.num_expanded expl)
    (Mdp.Arena.num_expanded arena);
  Alcotest.(check bool) "frontier rows are empty" true
    (let ok = ref true in
     for i = Mdp.Arena.num_expanded arena to Mdp.Arena.num_states arena - 1 do
       if Mdp.Arena.num_steps_of arena i <> 0 then ok := false
     done;
     !ok);
  let target = Mdp.Explore.indicator expl LR.Regions.c in
  let is_tick = LR.Automaton.is_tick in
  check_q_arrays "partial min_reach"
    (Legacy.min_reach expl ~is_tick ~target ~ticks:4)
    (Mdp.Finite_horizon.min_reach arena ~target ~ticks:4);
  check_q_arrays "partial max_reach"
    (Legacy.max_reach expl ~is_tick ~target ~ticks:4)
    (Mdp.Finite_horizon.max_reach arena ~target ~ticks:4);
  check_float_arrays "partial max_reach_float"
    (Legacy.max_reach_float expl ~is_tick ~target ~ticks:4)
    (Mdp.Finite_horizon.max_reach_float arena ~target ~ticks:4);
  Alcotest.(check (array bool)) "partial always_reaches"
    (Legacy.always_reaches expl ~target)
    (Mdp.Qualitative.always_reaches arena ~target)

(* ------------------------------------------------------------------ *)
(* Arena structure invariants *)

let test_arena_structure () =
  List.iter
    (fun (Fixture f) ->
       let a = f.arena in
       let n = Mdp.Arena.num_states a in
       Alcotest.(check int) (f.name ^ " num_states")
         (Mdp.Explore.num_states f.expl) n;
       Alcotest.(check int) (f.name ^ " num_choices")
         (Mdp.Explore.num_choices f.expl)
         (Mdp.Arena.num_choices a);
       Alcotest.(check int) (f.name ^ " num_branches")
         (Mdp.Explore.num_branches f.expl)
         (Mdp.Arena.num_branches a);
       (* Step rows mirror the fragment's rows in order, content, tick
          classification, and both probability planes. *)
       for i = 0 to n - 1 do
         let steps = Step_view.steps f.expl i in
         Alcotest.(check int)
           (Printf.sprintf "%s steps at %d" f.name i)
           (Array.length steps)
           (Mdp.Arena.num_steps_of a i);
         let lo = a.Mdp.Arena.step_off.(i) in
         Array.iteri
           (fun k step ->
              let kk = lo + k in
              if
                not
                  (f.is_tick step.Step_view.action
                   = Mdp.Arena.is_tick_step a ~step:kk)
              then Alcotest.failf "%s: tick mask differs at %d/%d" f.name i k;
              let olo = a.Mdp.Arena.out_off.(kk) in
              Array.iteri
                (fun b (j, w) ->
                   let o = olo + b in
                   if a.Mdp.Arena.tgt.(o) <> j then
                     Alcotest.failf "%s: branch target differs" f.name;
                   if not (a.Mdp.Arena.prob_q.(o) = w) then
                     Alcotest.failf "%s: exact plane differs" f.name;
                   if not (Float.equal a.Mdp.Arena.prob_f.(o) (Q.to_float w))
                   then Alcotest.failf "%s: float plane differs" f.name)
                step.Step_view.outcomes)
           steps
       done)
    (Lazy.force fixtures)

(* The arena adds a tick mask and a float plane; its CSR rows are the
   fragment's own arrays, not copies. *)
let test_compile_shares_rows () =
  List.iter
    (fun (Fixture f) ->
       let a = f.arena in
       Alcotest.(check bool) (f.name ^ " shares the fragment's rows") true
         (a.Mdp.Arena.step_off == Mdp.Explore.step_off f.expl
          && a.Mdp.Arena.out_off == Mdp.Explore.out_off f.expl
          && a.Mdp.Arena.tgt == Mdp.Explore.tgt f.expl
          && a.Mdp.Arena.prob_q == Mdp.Explore.prob_q f.expl
          && a.Mdp.Arena.actions == Mdp.Explore.actions f.expl))
    (Lazy.force fixtures)

(* A budgeted fragment's frontier rows are empty, and its expanded rows
   are the complete exploration's first rows: both explorations
   visit states in the same order. *)
let test_partial_frontier_rows () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let partial =
    Mdp.Explore.run_budgeted ~budget:(Core.Budget.v ~max_states:500 ()) pa
  in
  let expl = partial.Mdp.Explore.fragment in
  let n = Mdp.Explore.num_states expl in
  let expanded = Mdp.Explore.num_expanded expl in
  Alcotest.(check bool) "nonempty frontier" true (expanded < n);
  for i = expanded to n - 1 do
    Alcotest.(check int) (Printf.sprintf "frontier row %d is empty" i) 0
      (Array.length (Step_view.steps expl i))
  done;
  let step_off = Mdp.Explore.step_off expl in
  Alcotest.(check int) "rows end at the last expanded state"
    (Mdp.Explore.num_choices expl) step_off.(expanded);
  let full = Mdp.Explore.run pa in
  for i = 0 to expanded - 1 do
    if Step_view.steps expl i <> Step_view.steps full i then
      Alcotest.failf "expanded row %d differs from the complete run's" i
  done

(* ------------------------------------------------------------------ *)
(* Mdp.Funtbl.find_or_add *)

let test_find_or_add () =
  let t = Mdp.Funtbl.create ~equal:String.equal ~hash:Hashtbl.hash 4 in
  let calls = ref 0 in
  let make v () =
    incr calls;
    v
  in
  Alcotest.(check int) "miss installs" 1 (Mdp.Funtbl.find_or_add t "a" (make 1));
  Alcotest.(check int) "make called once" 1 !calls;
  Alcotest.(check int) "hit returns binding" 1
    (Mdp.Funtbl.find_or_add t "a" (make 99));
  Alcotest.(check int) "make not called on hit" 1 !calls;
  Alcotest.(check (option int)) "find sees it" (Some 1) (Mdp.Funtbl.find t "a");
  (* A raising [make] leaves the table unchanged. *)
  Alcotest.(check bool) "raise propagates" true
    (try
       ignore (Mdp.Funtbl.find_or_add t "b" (fun () -> failwith "boom"));
       false
     with Failure _ -> true);
  Alcotest.(check bool) "failed key absent" false (Mdp.Funtbl.mem t "b");
  Alcotest.(check int) "length unchanged" 1 (Mdp.Funtbl.length t);
  (* Interning survives resize. *)
  for i = 0 to 99 do
    ignore (Mdp.Funtbl.find_or_add t (string_of_int i) (fun () -> i))
  done;
  Alcotest.(check int) "after resize" 101 (Mdp.Funtbl.length t);
  Alcotest.(check int) "old binding intact" 1
    (Mdp.Funtbl.find_or_add t "a" (make 42))

(* ------------------------------------------------------------------ *)
(* Registry memoization: a second resolution of the same model must hit
   the cache and trigger no new exploration or compile. *)

let test_registry_memoizes () =
  let before = Models.stats () in
  let a = Models.get (Models.config ~model:`Lr ~n:3 ()) in
  let b = Models.get (Models.config ~model:`Lr ~n:3 ()) in
  Alcotest.(check bool) "same instance" true (a == b);
  let after = Models.stats () in
  Alcotest.(check int) "no new exploration" before.Models.explorations
    after.Models.explorations;
  Alcotest.(check int) "no new compile" before.Models.compiles
    after.Models.compiles;
  Alcotest.(check bool) "cache hits grew" true
    (after.Models.cache_hits > before.Models.cache_hits)

(* ------------------------------------------------------------------ *)
(* Sim.Search policy evaluation against the exact engine: on the LR
   arena a fixed policy's step-bounded value must lie within the exact
   min/max envelope, and the degenerate single-choice states make the
   all-zeros policy well defined. *)

let test_policy_value_envelope () =
  let (Fixture f) = List.hd (Lazy.force fixtures) in
  let n = Mdp.Arena.num_states f.arena in
  let horizon = 6 in
  let vmin =
    Mdp.Finite_horizon.min_reach_steps f.arena ~target:f.target
      ~steps:horizon
  in
  let vmax =
    Mdp.Finite_horizon.max_reach_steps f.arena ~target:f.target
      ~steps:horizon
  in
  let check_policy policy =
    let v =
      Sim.Search.policy_value f.arena ~policy ~target:f.target ~horizon
    in
    Array.iteri
      (fun i x ->
         let lo = Q.to_float vmin.(i) and hi = Q.to_float vmax.(i) in
         if x < lo -. 1e-9 || x > hi +. 1e-9 then
           Alcotest.failf "policy value %g outside [%g, %g] at state %d" x lo
             hi i)
      v
  in
  check_policy (Array.make n 0);
  check_policy (Array.init n (fun i -> i * 7))

let test_policy_search_finds_adversary () =
  let (Fixture f) = List.hd (Lazy.force fixtures) in
  let rng = Proba.Rng.create ~seed:11 in
  let r =
    Sim.Search.policy_search ~rng f.arena ~target:f.target ~horizon:6
      ~steps:60 ()
  in
  let starts = Mdp.Arena.start_indices f.arena in
  let vmax =
    Mdp.Finite_horizon.max_reach_steps f.arena ~target:f.target ~steps:6
  in
  let bound =
    List.fold_left (fun acc i -> Float.max acc (Q.to_float vmax.(i))) 0.0
      starts
  in
  Alcotest.(check bool) "score within exact bound" true
    (r.Sim.Search.score <= bound +. 1e-9);
  Alcotest.(check bool) "score nonnegative" true (r.Sim.Search.score >= 0.0);
  (* The reported score is exactly the objective of the reported
     genome: re-evaluating the best policy reproduces it bit-for-bit. *)
  let v =
    Sim.Search.policy_value f.arena ~policy:r.Sim.Search.best
      ~target:f.target ~horizon:6
  in
  let mean =
    List.fold_left (fun acc i -> acc +. v.(i)) 0.0 starts
    /. float_of_int (List.length starts)
  in
  Alcotest.(check bool) "score = objective of best genome" true
    (Float.equal mean r.Sim.Search.score)

(* ------------------------------------------------------------------ *)
(* Probability planes: the interval oracle must never change an
   answer.  [test_reach_differential] above already pins the session
   default (interval) against the legacy engines; these pin the two
   planes against each other explicitly -- full models at every pool
   size, budgeted partial fragments, the certified orbit quotient, a
   non-dyadic model where the oracle leaves residue, and the refusal
   path. *)

let test_plane_reach_differential () =
  List.iter
    (fun (Fixture f) ->
       List.iter
         (fun d ->
            with_opt_pool d (fun pool ->
                let ctx what =
                  Printf.sprintf "%s %s planes (%s)" f.name what (pool_label d)
                in
                check_q_arrays (ctx "min_reach")
                  (Mdp.Finite_horizon.min_reach ?pool ~plane:Mdp.Plane.Exact
                     f.arena ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.min_reach ?pool
                     ~plane:Mdp.Plane.Interval f.arena ~target:f.target
                     ~ticks:f.ticks);
                check_q_arrays (ctx "max_reach")
                  (Mdp.Finite_horizon.max_reach ?pool ~plane:Mdp.Plane.Exact
                     f.arena ~target:f.target ~ticks:f.ticks)
                  (Mdp.Finite_horizon.max_reach ?pool
                     ~plane:Mdp.Plane.Interval f.arena ~target:f.target
                     ~ticks:f.ticks)))
         pools)
    (Lazy.force fixtures)

let test_plane_partial_fragment () =
  let pa = LR.Automaton.make { LR.Automaton.n = 3; g = 1; k = 1 } in
  let partial =
    Mdp.Explore.run_budgeted ~budget:(Core.Budget.v ~max_states:500 ()) pa
  in
  let expl = partial.Mdp.Explore.fragment in
  let arena = Mdp.Arena.compile ~is_tick:LR.Automaton.is_tick expl in
  let target = Mdp.Explore.indicator expl LR.Regions.c in
  check_q_arrays "partial min_reach planes"
    (Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Exact arena ~target
       ~ticks:4)
    (Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Interval arena ~target
       ~ticks:4);
  check_q_arrays "partial max_reach planes"
    (Mdp.Finite_horizon.max_reach ~plane:Mdp.Plane.Exact arena ~target
       ~ticks:4)
    (Mdp.Finite_horizon.max_reach ~plane:Mdp.Plane.Interval arena ~target
       ~ticks:4)

let test_plane_sym_quotient () =
  (* The orbit quotient's weights are orbit-summed, so this also runs
     the planes over non-trivial (but still dyadic) merged branches. *)
  let inst = LR.Proof.build ~sym:Analysis.Symmetry.On ~n:3 () in
  let arena = inst.LR.Proof.arena in
  let target = Mdp.Arena.indicator arena LR.Regions.c in
  check_q_arrays "sym-on min_reach planes"
    (Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Exact arena ~target
       ~ticks:5)
    (Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Interval arena ~target
       ~ticks:5)

(* A model whose probabilities are not dyadic: 1/3 has no finite
   binary expansion, so its interval is one ulp wide, layer values stay
   wide, and the oracle must hand those states to the exact engine
   (which itself falls back from the dyadic to the rational path). *)
type third_state = TA | TB | TGoal

let third_arena =
  lazy
    (let enabled = function
       | TA ->
         (* best value 1/3*0 + 2/3*1 = 2/3: no finite binary expansion,
            so the layer never closes to a point at TA *)
         [ { Core.Pa.action = "roll";
             dist =
               Proba.Dist.make
                 [ (TB, Q.of_ints 1 3); (TGoal, Q.of_ints 2 3) ] };
           { Core.Pa.action = "tick"; dist = Proba.Dist.point TA } ]
       | TB -> []
       | TGoal -> []
     in
     let pa = Core.Pa.make ~start:[ TA ] ~enabled () in
     let arena = Mdp.Arena.of_pa ~is_tick:(fun a -> a = "tick") pa in
     let target =
       Mdp.Arena.indicator arena
         (Core.Pred.make "goal" (fun s -> s = TGoal))
     in
     (arena, target))

let test_plane_nondyadic_residue () =
  let arena, target = Lazy.force third_arena in
  Mdp.Plane.reset_stats ();
  let vi =
    Mdp.Finite_horizon.max_reach ~plane:Mdp.Plane.Interval arena ~target
      ~ticks:2
  in
  let ve =
    Mdp.Finite_horizon.max_reach ~plane:Mdp.Plane.Exact arena ~target
      ~ticks:2
  in
  check_q_arrays "non-dyadic planes" ve vi;
  let s = Mdp.Plane.stats () in
  Alcotest.(check bool) "oracle ran" true (s.Mdp.Plane.interval_passes > 0);
  Alcotest.(check bool) "1/3 values leave residue" true
    (s.Mdp.Plane.residue_states > 0)

let test_plane_stats_dyadic_all_points () =
  let (Fixture f) = List.hd (Lazy.force fixtures) in
  Mdp.Plane.reset_stats ();
  ignore
    (Mdp.Finite_horizon.min_reach ~plane:Mdp.Plane.Interval f.arena
       ~target:f.target ~ticks:f.ticks);
  let s = Mdp.Plane.stats () in
  Alcotest.(check bool) "passes recorded" true
    (s.Mdp.Plane.interval_passes > 0);
  Alcotest.(check bool) "points recorded" true (s.Mdp.Plane.point_states > 0);
  (* Every weight of the LR arena is dyadic, so the correctly-rounded
     interval plane decides every state: zero residue, zero fallbacks. *)
  Alcotest.(check int) "no residue" 0 s.Mdp.Plane.residue_states;
  Alcotest.(check int) "no fallbacks" 0 s.Mdp.Plane.exact_fallbacks

let test_plane_no_convergence () =
  (* The zero-time probabilistic cycle must be refused on BOTH planes:
     the diverging layer iterates are strictly monotone, so they never
     collapse to a point and the interval pass cannot mask the
     refusal. *)
  let module Bad = struct
    type state = S | Goal

    let enabled = function
      | S ->
        [ { Core.Pa.action = "flip"; dist = Proba.Dist.coin S Goal };
          { Core.Pa.action = "tick"; dist = Proba.Dist.point S } ]
      | Goal -> []

    let pa = Core.Pa.make ~start:[ S ] ~enabled ()
  end in
  let arena = Mdp.Arena.of_pa ~is_tick:(fun a -> a = "tick") Bad.pa in
  let target =
    Mdp.Arena.indicator arena (Core.Pred.make "goal" (fun s -> s = Bad.Goal))
  in
  List.iter
    (fun plane ->
       Alcotest.(check bool)
         (Printf.sprintf "refuses on %s" (Mdp.Plane.to_string plane))
         true
         (try
            ignore (Mdp.Finite_horizon.max_reach ~plane arena ~target ~ticks:1);
            false
          with Mdp.Finite_horizon.No_convergence _ -> true))
    [ Mdp.Plane.Interval; Mdp.Plane.Exact ]

(* ------------------------------------------------------------------ *)
(* Bisimulation.  [Bisim.refine]'s block arrays, numbering included,
   are pinned on every fixture by the digest of their comma-joined
   rendering (values recorded from the interval-keyed refinement it
   replaced, which both of its planes agreed on).  Stability is then
   re-checked by a signature built here from the fragment's step
   records, sharing no code with [Bisim]: all members of a block carry
   the same label and the same set of (action, exact per-block
   distribution) steps. *)

let bisim_pins =
  [ ("lr", (8092, 7171, "a01d775e36672885945d76e7e0f8f94a"));
    ("election", (60, 46, "0306ef4f2c2966de1396a183de722418"));
    ("coin", (27, 16, "c848f63e7be3e888c21394399feb19f3"));
    ("consensus", (16148, 3489, "a2e92067c683f6ebdb77f94def8dbcf3")) ]

module Int_map = Map.Make (Int)

(* A state's steps as sorted, deduplicated (marshalled action,
   "block:weight;..." distribution) pairs, weights summed exactly. *)
let reference_signature expl blocks i =
  Step_view.steps expl i
  |> Array.to_list
  |> List.map (fun { Step_view.action; outcomes } ->
      let per_block =
        Array.fold_left
          (fun m (j, w) ->
             Int_map.update blocks.(j)
               (fun cur -> Some (Q.add w (Option.value cur ~default:Q.zero)))
               m)
          Int_map.empty outcomes
      in
      ( Marshal.to_string action [],
        String.concat ";"
          (List.map
             (fun (b, w) -> Printf.sprintf "%d:%s" b (Q.to_string w))
             (Int_map.bindings per_block)) ))
  |> List.sort_uniq compare

let test_bisim_refine_pinned () =
  List.iter
    (fun (Fixture f) ->
       let labels = Array.map (fun b -> if b then 1 else 0) f.target in
       let blocks = Mdp.Bisim.refine f.arena ~labels () in
       let n, num_blocks, digest = List.assoc f.name bisim_pins in
       Alcotest.(check int) (f.name ^ ": states") n (Array.length blocks);
       Alcotest.(check int) (f.name ^ ": blocks") num_blocks
         (Mdp.Bisim.num_blocks blocks);
       Alcotest.(check string) (f.name ^ ": block array digest") digest
         (Digest.to_hex
            (Digest.string
               (String.concat ","
                  (Array.to_list (Array.map string_of_int blocks)))));
       let first = Hashtbl.create 64 in
       Array.iteri
         (fun i b ->
            let key = (labels.(i), reference_signature f.expl blocks i) in
            match Hashtbl.find_opt first b with
            | None -> Hashtbl.add first b (i, key)
            | Some (r, rkey) ->
              if rkey <> key then
                Alcotest.failf "%s: block %d unstable: states %d and %d \
                                differ" f.name b r i)
         blocks)
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "arena"
    [ ( "differential",
        [ Alcotest.test_case "finite horizon (all engines, all pools)" `Quick
            test_reach_differential;
          Alcotest.test_case "rational-only engine" `Quick
            test_rational_only_differential;
          Alcotest.test_case "step-bounded" `Quick
            test_reach_steps_differential;
          Alcotest.test_case "minimizing policy" `Quick
            test_policy_differential;
          Alcotest.test_case "qualitative fixpoints" `Quick
            test_qualitative_differential;
          Alcotest.test_case "expected time" `Quick
            test_expected_time_differential;
          Alcotest.test_case "budgeted partial fragment" `Quick
            test_partial_fragment_differential ] );
      ( "plane",
        [ Alcotest.test_case "interval vs exact (all pools)" `Quick
            test_plane_reach_differential;
          Alcotest.test_case "partial fragment" `Quick
            test_plane_partial_fragment;
          Alcotest.test_case "orbit quotient" `Quick test_plane_sym_quotient;
          Alcotest.test_case "non-dyadic residue" `Quick
            test_plane_nondyadic_residue;
          Alcotest.test_case "dyadic stats all points" `Quick
            test_plane_stats_dyadic_all_points;
          Alcotest.test_case "no-convergence refusal" `Quick
            test_plane_no_convergence ] );
      ( "bisim",
        [ Alcotest.test_case "refine pinned and stable" `Quick
            test_bisim_refine_pinned ] );
      ( "structure",
        [ Alcotest.test_case "CSR mirrors the fragment" `Quick
            test_arena_structure;
          Alcotest.test_case "compile shares the fragment's rows" `Quick
            test_compile_shares_rows;
          Alcotest.test_case "partial fragment keeps empty frontier rows"
            `Quick test_partial_frontier_rows ] );
      ( "funtbl",
        [ Alcotest.test_case "find_or_add" `Quick test_find_or_add ] );
      ( "registry",
        [ Alcotest.test_case "memoizes instances" `Quick
            test_registry_memoizes ] );
      ( "search",
        [ Alcotest.test_case "policy value envelope" `Quick
            test_policy_value_envelope;
          Alcotest.test_case "policy search bounded by exact max" `Quick
            test_policy_search_finds_adversary ] ) ]
