(** XACML-style XML front end (the Section 6.3 replacement syntax).

    Parses a simplified XACML-shaped document into the same {!Types.t}
    the RSL-based concrete syntax produces, and exports policies back to
    XML. Evaluation, combination and every PEP are syntax-agnostic. *)

val parse : string -> (Types.t, string) result
(** [Error] on malformed XML or unsupported constructs. *)

val to_xml : ?policy_id:string -> Types.t -> Xml_lite.t

val to_string : ?policy_id:string -> Types.t -> string
(** Round-trips: [parse (to_string p)] is decision-equivalent to [p]
    (verified by property test). *)
