(** Relation tuples: the [object#relation@subject] triples of the
    Zanzibar data model, e.g.
    [group:physics#member@user:/DC=org/CN=alice] and
    [jobtag:jt-42#manager@group:physics#member]. *)

type obj = private {
  namespace : string;
  id : string;
}

type userset = {
  uobj : obj;
  urelation : string;
}

type subject =
  | User of string  (** a concrete principal; for PEPs, the DN string *)
  | Userset of userset
      (** every user holding [urelation] on [uobj] — group indirection *)

type t = private {
  obj : obj;
  relation : string;
  subject : subject;
}

val obj : namespace:string -> id:string -> obj
(** Raises [Invalid_argument] on empty parts or separator characters
    ([':'] / ['#'] in the namespace, ['#'] / ['@'] in the id). *)

val obj_to_string : obj -> string
val obj_of_string : string -> obj option
val obj_equal : obj -> obj -> bool

val userset : obj -> string -> userset

val subject_to_string : subject -> string
val subject_of_string : string -> subject option
val subject_equal : subject -> subject -> bool

val make : obj -> relation:string -> subject -> t
(** Raises [Invalid_argument] when [relation] is empty or contains
    ['@'] / ['#']. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val equal : t -> t -> bool
val pp : t Fmt.t
