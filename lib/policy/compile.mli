(** One-shot policy compilation: an indexed, pre-normalized form of
    {!Types.t} whose {!eval} answers exactly what {!Eval.evaluate}
    answers — decision and reason — while skipping the per-request
    statement scan and constant re-parsing.

    Statements are bucketed by subject pattern (component-wise DN hash;
    short-prefix buckets are the group/"wildcard" statements), constraints
    are constant-folded (NULL shape, numeric bounds, [self] separation),
    and attribute names are interned so the attribute view becomes an
    array. Each compilation is stamped with a process-globally monotonic
    {e policy epoch}; recompiling (a policy reload) always yields a larger
    epoch, which is what decision caches key on. *)

type t

val compile : Types.t -> t
(** Compile and stamp with a fresh epoch. *)

val policy : t -> Types.t
(** The source policy, unchanged (e.g. for explanation paths). *)

val epoch : t -> int

val fresh_epoch : unit -> int
(** Draw the next policy epoch without compiling; for components that
    must remain epoch-monotonic across an empty policy set. *)

val eval : t -> Types.request -> Eval.decision
(** Semantically identical to [Eval.evaluate (policy t)] — the
    differential property suite ([test_policy_compile]) holds this to
    decision-and-reason equality on generated policies. *)

val eval_many : t -> Types.request array -> Eval.decision array
(** Element-wise identical to [Array.map (eval t)], in request order,
    but amortized across the batch: structurally equal requests are
    evaluated once (requests are plain data, so equal requests get equal
    decisions), distinct requests are grouped by subject so the DN
    rendering and index probe are shared per group, and one scratch view
    array serves the whole batch. *)

(** A mutable slot holding the current compilation of a reloadable
    policy; [reload] recompiles and therefore bumps the epoch. *)
module Store : sig
  type compiled = t

  type t

  val create : Types.t -> t
  val current : t -> compiled
  val epoch : t -> int
  val reload : t -> Types.t -> unit
  val eval : t -> Types.request -> Eval.decision
end
