type 'v entry = { value : 'v; cost : int; mutable last : int }

type 'v t = {
  mu : Mutex.t;
  table : (string, 'v entry) Hashtbl.t;
  cost : 'v -> int;
  mutable capacity : int option;
  mutable clock : int;
  mutable total : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
}

let create ?capacity ~cost () =
  { mu = Mutex.create (); table = Hashtbl.create 64; cost; capacity;
    clock = 0; total = 0; hits = 0; misses = 0; insertions = 0;
    evictions = 0 }

let locked t f =
  Mutex.lock t.mu;
  let v = try f () with e -> Mutex.unlock t.mu; raise e in
  Mutex.unlock t.mu;
  v

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        t.hits <- t.hits + 1;
        t.clock <- t.clock + 1;
        e.last <- t.clock;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

(* Called with [t.mu] held. *)
let evict_over_capacity t =
  match t.capacity with
  | None -> ()
  | Some cap ->
    while t.total > cap && Hashtbl.length t.table > 0 do
      let oldest =
        Hashtbl.fold
          (fun key e acc ->
             match acc with
             | Some (_, e') when e'.last <= e.last -> acc
             | Some _ | None -> Some (key, e))
          t.table None
      in
      match oldest with
      | None -> ()
      | Some (key, e) ->
        Hashtbl.remove t.table key;
        t.total <- t.total - e.cost;
        t.evictions <- t.evictions + 1
    done

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let add t key v =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
       | Some old ->
         Hashtbl.remove t.table key;
         t.total <- t.total - old.cost
       | None -> ());
      let cost = t.cost v in
      t.clock <- t.clock + 1;
      Hashtbl.replace t.table key { value = v; cost; last = t.clock };
      t.total <- t.total + cost;
      t.insertions <- t.insertions + 1;
      evict_over_capacity t)

let set_capacity t cap =
  locked t (fun () ->
      t.capacity <- cap;
      evict_over_capacity t)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  cost_bytes : int;
  capacity : int option;
}

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; insertions = t.insertions;
        evictions = t.evictions; entries = Hashtbl.length t.table;
        cost_bytes = t.total; capacity = t.capacity })
