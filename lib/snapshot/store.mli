(** Arena snapshots: a compiled case-study instance as one [.prtba]
    file, loadable without an exploration or a compile by a process
    that never ran the model.

    [prtb compile MODEL -o FILE.prtba] explores and compiles an
    instance, then {!save} serializes the compiled {!Mdp.Arena} -- the
    CSR offset arrays, the interned states, the tick mask and the
    exact rational probability plane (the float plane is recomputed on
    load exactly as {!Mdp.Arena.compile} computes it, and the dyadic
    and interval planes rebuild lazily as usual) -- together with the
    full model configuration and the arena's structural
    {!Mdp.Arena.fingerprint}.  [prtb serve --snapshot-dir DIR] then
    loads every snapshot at startup and {!Models.preload}s it, so the
    first query for a snapshotted instance is answered without any
    exploration or compile ([/stats] reports [explorations: 0, compiles: 0]).  The
    configuration is a {!Models.config}; this module only encodes,
    decodes and rebuilds.

    Loading is as strict as [lib/cert]'s parser: an unknown container
    version, a truncated file, a one-byte tamper (the {!Codec} digest
    seals every byte), a malformed section, rows or a tick mask that
    the {e current} model code does not derive for the stored config,
    or a fingerprint that does not match the loaded arena are all
    named [Error]s -- a stale or foreign snapshot is refused, never
    silently served. *)

(** Serialize to [prtba/1] bytes: the {!Models.config} fields, then
    the instance's arena sections.  Raises [Invalid_argument] when
    [config] names a different model than the instance is. *)
val encode : Models.config -> Models.instance -> string

(** [save ~path config inst] writes {!encode} output atomically
    (temp file + rename).  Raises [Sys_error] on I/O failure. *)
val save : path:string -> Models.config -> Models.instance -> unit

(** Strict inverse of {!encode}: parses the container, rebuilds the
    fragment ({!Mdp.Explore.of_parts}, which re-derives every stored
    row) and the arena ({!Mdp.Arena.assemble}) under the current model
    code ({!Models.assemble}), and refuses -- with a named error --
    anything malformed, tampered or version-skewed, anything stale
    (["snapshot is stale: ..."]: rows or tick mask the current model
    does not derive), or a stored fingerprint the loaded arena does
    not have. *)
val of_string : string -> (Models.config * Models.instance, string) result

(** {!of_string} on a file's bytes; I/O errors become [Error]. *)
val load : path:string -> (Models.config * Models.instance, string) result
