let render ~header ~rows =
  let all = header :: rows in
  let cols =
    List.fold_left (fun acc r -> max acc (List.length r)) 0 all
  in
  let width = Array.make cols 0 in
  List.iter
    (fun r ->
      List.iteri
        (fun i cell -> width.(i) <- max width.(i) (String.length cell))
        r)
    all;
  let buf = Buffer.create 256 in
  let pad i cell =
    Buffer.add_string buf cell;
    if i < cols - 1 then
      Buffer.add_string buf (String.make (width.(i) - String.length cell + 2) ' ')
  in
  let line r =
    List.iteri pad r;
    Buffer.add_char buf '\n'
  in
  line header;
  let rule =
    List.init (List.length header) (fun i -> String.make width.(i) '-')
  in
  line rule;
  List.iter line rows;
  Buffer.contents buf

let print ~header ~rows = print_string (render ~header ~rows)

let fmt_float x =
  if Float.is_nan x then "nan"
  else if x = 0. then "0"
  else if Float.abs x >= 1000. then Printf.sprintf "%.0f" x
  else if Float.abs x >= 10. then Printf.sprintf "%.1f" x
  else if Float.abs x >= 0.01 then Printf.sprintf "%.3f" x
  else Printf.sprintf "%.2e" x
