(* Relation tuples, the Zanzibar data model (Pang et al., ATC 2019)
   transplanted onto the paper's vocabulary: an [object] is a namespaced
   id such as [group:physics] or [jobtag:jt-42], a [relation] names an
   edge class on that namespace ([member], [manager], ...), and a
   subject is either a concrete user (a grid DN) or a *userset* — every
   user holding some relation on some object, written
   [group:physics#member]. The canonical text form is

     object#relation@subject

   e.g. [group:physics#member@user:/DC=org/CN=alice] and
   [jobtag:jt-42#manager@group:physics#member]. *)

type obj = {
  namespace : string;
  id : string;
}

type userset = {
  uobj : obj;
  urelation : string;
}

type subject =
  | User of string  (* a concrete principal; for PEPs, the DN string *)
  | Userset of userset

type t = {
  obj : obj;
  relation : string;
  subject : subject;
}

let obj ~namespace ~id =
  if namespace = "" || id = "" then invalid_arg "Tuple.obj: empty namespace or id";
  if String.contains namespace ':' || String.contains namespace '#' then
    invalid_arg "Tuple.obj: namespace must not contain ':' or '#'";
  if String.contains id '#' || String.contains id '@' then
    invalid_arg "Tuple.obj: id must not contain '#' or '@'";
  { namespace; id }

let obj_to_string o = o.namespace ^ ":" ^ o.id

(* The first ':' separates namespace from id, so ids may themselves
   contain ':' (DNs with odd values survive). *)
let obj_of_string s =
  match String.index_opt s ':' with
  | None | Some 0 -> None
  | Some i ->
    let namespace = String.sub s 0 i in
    let id = String.sub s (i + 1) (String.length s - i - 1) in
    if id = "" || String.contains namespace '#' then None else Some { namespace; id }

let obj_equal a b = a.namespace = b.namespace && a.id = b.id

let userset uobj urelation = { uobj; urelation }

let subject_to_string = function
  | User u -> "user:" ^ u
  | Userset { uobj; urelation } -> obj_to_string uobj ^ "#" ^ urelation

let subject_of_string s =
  match String.index_opt s '#' with
  | Some i ->
    let rel = String.sub s (i + 1) (String.length s - i - 1) in
    if rel = "" then None
    else
      Option.map
        (fun uobj -> Userset { uobj; urelation = rel })
        (obj_of_string (String.sub s 0 i))
  | None ->
    let prefix = "user:" in
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      Some (User (String.sub s plen (String.length s - plen)))
    else None

let subject_equal a b =
  match (a, b) with
  | User x, User y -> String.equal x y
  | Userset x, Userset y -> obj_equal x.uobj y.uobj && x.urelation = y.urelation
  | User _, Userset _ | Userset _, User _ -> false

let make obj ~relation subject =
  if relation = "" || String.contains relation '@' || String.contains relation '#' then
    invalid_arg "Tuple.make: bad relation";
  { obj; relation; subject }

let to_string t =
  Printf.sprintf "%s#%s@%s" (obj_to_string t.obj) t.relation
    (subject_to_string t.subject)

(* [object#relation@subject]: split on the first '#' (object ids exclude
   '#') and then the first '@' (relations exclude '@'); the subject keeps
   any later '#' for its own userset form. *)
let of_string s =
  match String.index_opt s '#' with
  | None -> Error (Printf.sprintf "tuple %S: missing '#'" s)
  | Some hash -> begin
    match obj_of_string (String.sub s 0 hash) with
    | None -> Error (Printf.sprintf "tuple %S: bad object" s)
    | Some obj -> begin
      let rest = String.sub s (hash + 1) (String.length s - hash - 1) in
      match String.index_opt rest '@' with
      | None | Some 0 -> Error (Printf.sprintf "tuple %S: missing relation@subject" s)
      | Some at -> begin
        let relation = String.sub rest 0 at in
        match subject_of_string (String.sub rest (at + 1) (String.length rest - at - 1)) with
        | None -> Error (Printf.sprintf "tuple %S: bad subject" s)
        | Some subject -> (
          (* [make] re-validates the relation: a '#' smuggled into it
             (e.g. "obj##rel@s") must not round-trip. *)
          match make obj ~relation subject with
          | t -> Ok t
          | exception Invalid_argument m -> Error (Printf.sprintf "tuple %S: %s" s m))
      end
    end
  end

let equal a b =
  obj_equal a.obj b.obj && a.relation = b.relation && subject_equal a.subject b.subject

let pp ppf t = Fmt.string ppf (to_string t)
