(* Callout configuration file.

   Mirrors the paper's global configuration file: one line per callout
   point, naming the abstract callout type, the library implementing it and
   the symbol within the library:

     # type             library                symbol
     globus_gram_jobmanager_authz  libauthz_file.so    authz_file_callout

   [load] parses the text; [resolve] binds a configured type against a
   registry, producing the callable callout or a Bad_configuration error —
   exactly the failure a real deployment hits when the .so is missing. *)

type binding = {
  callout_type : string;
  library : string;
  symbol : string;
}

type t = { bindings : binding list }

(* The first malformed line is reported by number; nothing is raised. *)
let load text =
  let rec go acc = function
    | [] -> Ok { bindings = List.rev acc }
    | (lineno, line) :: rest -> begin
      match Grid_util.Strings.split_whitespace line with
      | [ callout_type; library; symbol ] -> go ({ callout_type; library; symbol } :: acc) rest
      | _ -> Error (Printf.sprintf "line %d: expected: <type> <library> <symbol>" lineno)
    end
  in
  go [] (Grid_util.Strings.config_lines text)

let bindings t = t.bindings

let find t callout_type =
  List.find_opt (fun b -> b.callout_type = callout_type) t.bindings

let resolve t registry callout_type =
  match find t callout_type with
  | None ->
    Error
      (Callout.Bad_configuration
         (Printf.sprintf "no callout configured for type %S" callout_type))
  | Some { library; symbol; _ } -> Registry.lookup registry ~library ~symbol

(* The abstract callout type GRAM's job manager uses, as a constant so all
   components agree on the name. *)
let gram_authz_type = "globus_gram_jobmanager_authz"

let to_text t =
  Grid_util.Strings.concat_map "\n"
    (fun b -> Printf.sprintf "%s %s %s" b.callout_type b.library b.symbol)
    t.bindings
