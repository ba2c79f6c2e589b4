(** Driver: file discovery, per-file summaries, whole-program passes,
    waiver application. *)

type result = {
  files : string list;  (** every .ml scanned, sorted within each root *)
  findings : Rules.finding list;
      (** unwaived findings, report order — these fail the run *)
  waived : (Rules.finding * string) list;
      (** suppressed findings with the waiver's recorded reason *)
}

val run : ?config:Ast_check.config -> string list -> result
(** The full pipeline over every .ml under the given files/directories:
    waiver scan, parse, all local passes (hot/poly/exn + domain-safety +
    determinism), the interprocedural hot-reach pass, the missing-mli
    check and unused-waiver findings. Parse failures surface as a
    [Parse_error] finding, not an exception. *)

val lint_file :
  ?config:Ast_check.config -> string -> Rules.finding list * (Rules.finding * string) list
(** Lint one file with the local passes only (no call graph); returns
    (unwaived, waived). *)
