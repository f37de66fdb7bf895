(** Callout configuration file: binds abstract callout types to
    library/symbol pairs, resolved at runtime against a {!Registry}. *)

type binding = {
  callout_type : string;
  library : string;
  symbol : string;
}

type t

val load : string -> (t, string) result
(** Parse configuration text ([<type> <library> <symbol>] lines, [#]
    comments); [Error] names the first malformed line. *)

val bindings : t -> binding list
val find : t -> string -> binding option

val resolve : t -> Registry.t -> string -> (Callout.t, Callout.error) result
(** Locate and "load" the callout for an abstract type; fails closed with
    [Bad_configuration] when the type is unconfigured or the
    library/symbol cannot be resolved. *)

val gram_authz_type : string
(** The abstract type name GRAM's job manager resolves:
    ["globus_gram_jobmanager_authz"]. *)

val to_text : t -> string
