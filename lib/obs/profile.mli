(** Query profiles — the per-query record a BMO evaluation hands back.

    Unlike {!Metrics} and {!Span}, a profile is built only when the caller
    explicitly asks for one (e.g. [profile = true] in a query's engine
    config, or the shell's [\profile] mode), so it carries exact numbers
    regardless of the global telemetry flag. *)

type phase = { phase_name : string; phase_ms : float }

type t = {
  algorithm : string;  (** evaluation algorithm, e.g. ["bnl"] or ["auto:dnc(...)"] *)
  input_rows : int;
  output_rows : int;
  comparisons : int;  (** dominance tests performed; [-1] when not tracked *)
  phases : phase list;  (** in execution order *)
  attrs : (string * string) list;  (** extras: window peak, plan, rewrite steps … *)
}

val make :
  ?phases:phase list ->
  ?attrs:(string * string) list ->
  ?comparisons:int ->
  algorithm:string ->
  input_rows:int ->
  output_rows:int ->
  unit ->
  t

val phase : string -> float -> phase

val add_attr : t -> string -> string -> t
val add_phases : t -> phase list -> t
(** Prepend phases (e.g. the executor's parse/translate phases) to a
    profile produced further down the stack. *)

val total_ms : t -> float

val to_lines : t -> string list
(** Human-readable rendering, one line per fact — what [\profile] prints. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
