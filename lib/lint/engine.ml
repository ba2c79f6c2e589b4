(* Orchestration (DESIGN.md §12). The pipeline:

     discover .ml files
       -> per-file summary (parse + local passes + callgraph facts)
       -> whole-program passes over the summaries (Hotset hot-reach)
       -> missing-mli check
       -> waiver application (after the graph passes, so a waiver on an
          interprocedural finding registers as used)
       -> unused-waiver findings

   Every finding that survives the waivers fails the run. Everything
   returns data; printing lives in Report / Sarif. *)

type result = {
  files : string list;
  findings : Rules.finding list;  (* unwaived: these fail *)
  waived : (Rules.finding * string) list;  (* finding, waiver reason *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_findings ~file exn =
  let fallback message = [ Rules.v ~file ~line:1 ~col:0 Rules.Parse_error message ] in
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      [
        Rules.v ~file ~line:loc.Location.loc_start.Lexing.pos_lnum
          ~col:
            (loc.Location.loc_start.Lexing.pos_cnum
            - loc.Location.loc_start.Lexing.pos_bol)
          Rules.Parse_error
          (Format.asprintf "%t" report.Location.main.Location.txt);
      ]
  | Some `Already_displayed | None -> fallback (Printexc.to_string exn)

(* One file -> summary. All local passes run here; whole-program
   passes and the mli check run downstream in [run]. *)
let summarize ~(config : Ast_check.config) file =
  let source = read_file file in
  let waivers, waiver_findings = Waivers.scan ~path:file source in
  let parsed =
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf file;
    match Parse.implementation lexbuf with
    | structure -> Ok structure
    | exception exn -> Error (parse_findings ~file exn)
  in
  match parsed with
  | Error findings ->
      {
        Callgraph.s_path = file;
        s_findings = findings;
        s_waivers = waivers;
        s_waiver_findings = waiver_findings;
        s_opens = [];
        s_bindings = [];
      }
  | Ok structure ->
      let local =
        Ast_check.check_structure config ~file structure
        @ Domsafe.pass
            ~lane_visible:(Ast_check.path_matches file config.domsafe_modules)
            ~file structure
        @ Determinism.pass
            ~wallclock_allowed:
              (Ast_check.path_matches file config.wallclock_allow)
            ~file structure
      in
      let opens, bindings = Callgraph.extract structure in
      {
        Callgraph.s_path = file;
        s_findings = local;
        s_waivers = waivers;
        s_waiver_findings = waiver_findings;
        s_opens = opens;
        s_bindings = bindings;
      }

let mli_findings ~(config : Ast_check.config) file =
  if config.Ast_check.require_mli && not (Sys.file_exists (file ^ "i")) then
    [
      Rules.v ~file ~line:1 ~col:0 Rules.Missing_mli
        "no matching .mli: every library module declares its interface";
    ]
  else []

let apply_waivers ~waivers_by_file findings =
  List.partition_map
    (fun (f : Rules.finding) ->
      let waivers =
        match Hashtbl.find_opt waivers_by_file f.Rules.file with
        | Some ws -> ws
        | None -> []
      in
      match
        List.find_opt
          (fun w -> Waivers.covers w ~rule:f.Rules.rule ~line:f.Rules.line)
          waivers
      with
      | Some w ->
          w.Waivers.used <- true;
          Either.Left (f, w.Waivers.reason)
      | None -> Either.Right f)
    findings

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let run ?(config = Ast_check.default) paths =
  let files = List.concat_map ml_files_under paths in
  let summaries = List.map (summarize ~config) files in
  let lib_map =
    Callgraph.library_map
      ~roots:(List.filter (fun p -> Sys.file_exists p && Sys.is_directory p) paths)
  in
  let reach = Hotset.findings ~config ~lib_map summaries in
  let waivers_by_file = Hashtbl.create 64 in
  List.iter
    (fun (s : Callgraph.summary) ->
      Hashtbl.replace waivers_by_file s.Callgraph.s_path s.Callgraph.s_waivers)
    summaries;
  let raw =
    List.concat_map
      (fun (s : Callgraph.summary) -> s.Callgraph.s_findings @ s.Callgraph.s_waiver_findings)
      summaries
    @ reach
    @ List.concat_map (mli_findings ~config) files
  in
  let waived, unwaived = apply_waivers ~waivers_by_file raw in
  let unused =
    List.concat_map
      (fun (s : Callgraph.summary) ->
        Waivers.unused_findings ~path:s.Callgraph.s_path s.Callgraph.s_waivers)
      summaries
  in
  {
    files;
    findings = List.sort Rules.finding_compare (unwaived @ unused);
    waived = List.sort (fun (a, _) (b, _) -> Rules.finding_compare a b) waived;
  }

(* Single-file entry point, local passes only (no call graph): what the
   fixture tests drive and what stays cheap to reason about. Returns
   (unwaived, waived). *)
let lint_file ?(config = Ast_check.default) file =
  let summary = summarize ~config file in
  let waivers_by_file = Hashtbl.create 1 in
  Hashtbl.replace waivers_by_file file summary.Callgraph.s_waivers;
  let raw =
    summary.Callgraph.s_findings @ summary.Callgraph.s_waiver_findings
    @ mli_findings ~config file
  in
  let waived, unwaived = apply_waivers ~waivers_by_file raw in
  let unwaived =
    unwaived @ Waivers.unused_findings ~path:file summary.Callgraph.s_waivers
  in
  (unwaived, waived)
