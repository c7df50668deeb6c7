(** Graphviz (DOT) export of compiled arenas.

    Each state becomes a node; each nondeterministic step becomes a
    small choice point labelled by its action, fanning out to its
    probabilistic outcomes with their weights.  Intended for inspecting
    small instances and for documentation figures. *)

(** [to_string arena ?name ?max_states ?highlight ()] renders the
    compiled MDP in DOT syntax.  States satisfying [highlight] are
    drawn filled.  If the automaton has more than [max_states] states
    (default 500), raises [Invalid_argument] -- large graphs are not
    viewable anyway. *)
val to_string :
  ('s, 'a) Arena.t -> ?name:string -> ?max_states:int ->
  ?highlight:('s -> bool) -> unit -> string
