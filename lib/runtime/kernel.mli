(** Compute kernels: the actual code a module runs when it fires.

    The scheduling theory treats a module as an opaque state blob plus
    token rates; a {!t} supplies the blob's contents and the function that
    transforms [pop(e)] input tokens per input channel into [push(e)]
    output tokens per output channel.  Tokens are unit-size (one word), so
    they are represented as single [float]s.

    A kernel's [state_words] must equal the graph module's declared state
    size — the scheduler's cache accounting is about that state, and the
    runtime checks the two agree. *)

type t = {
  state_words : int;
  init : unit -> float array;
      (** Fresh state contents; must have length [state_words]. *)
  fire :
    state:float array ->
    inputs:float array array ->
    outputs:float array array ->
    unit;
      (** [fire ~state ~inputs ~outputs]: [inputs.(i)] holds the tokens
          consumed from the module's [i]-th input channel (in
          {!Ccs_sdf.Graph.in_edges} order); the kernel must fill every
          [outputs.(j)] (pre-allocated to the channel's push rate, in
          {!Ccs_sdf.Graph.out_edges} order).  May read and write
          [state].  The engine owns [inputs] and [outputs]: it allocates
          them once and reuses them on every firing, so a kernel must not
          keep them (or any of their rows) past the call. *)
}

val make :
  ?init:(unit -> float array) ->
  state_words:int ->
  (state:float array ->
  inputs:float array array ->
  outputs:float array array ->
  unit) ->
  t
(** [init] defaults to an all-zero state. *)

val stateless :
  state_words:int ->
  (inputs:float array array -> outputs:float array array -> unit) ->
  t
(** A kernel that ignores its state (the state still occupies cache — it
    models code/tables the transformation conceptually uses). *)
