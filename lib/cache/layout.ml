type region = { base : int; length : int }

type t = { align : int; mutable next : int }

let create ?(align = 1) () =
  if align < 1 then invalid_arg "Layout.create: align must be >= 1";
  { align; next = 0 }

let round_up x a = (x + a - 1) / a * a

let alloc ?align t ~len =
  if len < 0 then invalid_arg "Layout.alloc: negative length";
  let align = Option.value align ~default:t.align in
  if align < 1 then invalid_arg "Layout.alloc: align must be >= 1";
  let base = round_up t.next align in
  t.next <- base + len;
  { base; length = len }

let size t = t.next
