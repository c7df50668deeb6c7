module Q = Proba.Rational

type ('s, 'a) t = {
  expl : ('s, 'a) Explore.t;
  n : int;
  expanded : int;
  step_off : int array;
  out_off : int array;
  tgt : int array;
  prob_q : Q.t array;
  prob_f : float array;
  tick : bool array;
  actions : 'a array;
  dyadic : Proba.Dyadic.t array option Atomic.t;
  interval : (float array * float array) option Atomic.t;
  fp : string option Atomic.t;
}

(* Process-wide count of compilations, surfaced through [Models.stats]
   alongside [Explore.explorations].  Atomic: [prtb serve] workers may
   compile distinct models concurrently. *)
let compiles_counter = Atomic.make 0
let compiles () = Atomic.get compiles_counter

(* An arena aliases its fragment's rows; only the tick mask and the
   float plane are its own.  The float plane is [Q.to_float] of the
   exact plane, precomputed so float sweeps never convert in the inner
   loop. *)
let make expl tick =
  { expl;
    n = Explore.num_states expl;
    expanded = Explore.num_expanded expl;
    step_off = Explore.step_off expl;
    out_off = Explore.out_off expl;
    tgt = Explore.tgt expl;
    prob_q = Explore.prob_q expl;
    prob_f = Array.map Q.to_float (Explore.prob_q expl);
    tick;
    actions = Explore.actions expl;
    dyadic = Atomic.make None;
    interval = Atomic.make None;
    fp = Atomic.make None }

let compile ?is_tick expl =
  Atomic.incr compiles_counter;
  let actions = Explore.actions expl in
  make expl
    (match is_tick with
     | Some f -> Array.map f actions
     | None -> Array.make (Array.length actions) false)

let of_pa ?max_states ?is_tick pa =
  compile ?is_tick (Explore.run ?max_states pa)

(* Rehydration constructor for snapshot loading: adopts a tick mask
   produced by a previous [compile], so it does NOT bump
   [compiles_counter]. *)
let assemble ~tick expl =
  if Array.length tick <> Explore.num_choices expl then
    invalid_arg "Arena.assemble: tick mask length mismatch";
  make expl tick

(* Derived planes are computed on demand and memoized with a CAS:
   worker domains sweeping one shared arena may race here, in which
   case both compute the (identical, immutable) plane and the loser
   adopts the published copy — no lock, no torn reads. *)

(* [of_rational] raises [Not_dyadic] before anything is cached, so a
   failed conversion leaves the arena unchanged and every later caller
   re-raises consistently. *)
let dyadic_plane a =
  match Atomic.get a.dyadic with
  | Some plane -> plane
  | None ->
    let plane = Array.map Proba.Dyadic.of_rational a.prob_q in
    if Atomic.compare_and_set a.dyadic None (Some plane) then plane
    else begin
      match Atomic.get a.dyadic with
      | Some published -> published
      | None -> plane (* unreachable: the memo is write-once *)
    end

let interval_plane a =
  match Atomic.get a.interval with
  | Some plane -> plane
  | None ->
    let num_branches = Array.length a.tgt in
    let lo = Array.make num_branches 0.0 in
    let hi = Array.make num_branches 0.0 in
    for o = 0 to num_branches - 1 do
      let iv = Proba.Interval.of_rational a.prob_q.(o) in
      lo.(o) <- Proba.Interval.lo iv;
      hi.(o) <- Proba.Interval.hi iv
    done;
    let plane = (lo, hi) in
    if Atomic.compare_and_set a.interval None (Some plane) then plane
    else begin
      match Atomic.get a.interval with
      | Some published -> published
      | None -> plane
    end

(* The fingerprint digests only deterministic inputs: the CSR skeleton
   (offsets, targets), the exact probability plane rendered through
   [Rational.to_wire] (canonical bytes, Bigint-tier safe), the tick
   mask, and a structural hash of each interned state and action in
   index order.  [Stdlib.Hashtbl.hash] on immutable model values is a
   pure function of their structure, so the digest is identical across
   processes, [--domains] settings and plane choices -- none of which
   affect what was explored -- while any change to the model, its
   parameters, the exploration budget or the symmetry quotient changes
   the interned structure and therefore the digest. *)
let fingerprint a =
  match Atomic.get a.fp with
  | Some s -> s
  | None ->
    let buf = Buffer.create 8192 in
    let add_int i = Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',' in
    Buffer.add_string buf "arena/1;";
    add_int a.n;
    add_int a.expanded;
    Array.iter add_int a.step_off;
    Array.iter add_int a.out_off;
    Array.iter add_int a.tgt;
    Array.iter
      (fun q ->
         Buffer.add_string buf (Proba.Rational.to_wire q);
         Buffer.add_char buf ',')
      a.prob_q;
    Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0'))
      a.tick;
    Buffer.add_char buf ';';
    Array.iter (fun act -> add_int (Stdlib.Hashtbl.hash act)) a.actions;
    Buffer.add_char buf ';';
    for i = 0 to a.n - 1 do
      add_int (Stdlib.Hashtbl.hash (Explore.state a.expl i))
    done;
    let s = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    if Atomic.compare_and_set a.fp None (Some s) then s
    else begin
      match Atomic.get a.fp with
      | Some published -> published
      | None -> s (* unreachable: the memo is write-once *)
    end

let explored a = a.expl
let automaton a = Explore.automaton a.expl
let num_states a = a.n
let num_expanded a = a.expanded
let is_expanded a i = i < a.expanded
let is_complete a = a.expanded = a.n
let num_choices a = Array.length a.tick
let num_branches a = Array.length a.tgt
let state a i = Explore.state a.expl i
let index a s = Explore.index a.expl s
let start_indices a = Explore.start_indices a.expl
let states_where a pred = Explore.states_where a.expl pred
let indicator a pred = Explore.indicator a.expl pred

let num_steps_of a i = a.step_off.(i + 1) - a.step_off.(i)

let action a ~step = a.actions.(step)
