type t =
  | Fire of Ccs_sdf.Graph.node
  | Seq of t list
  | Repeat of int * t

let fire v = Fire v
let seq l = Seq l

let repeat k body =
  if k < 0 then invalid_arg "Schedule.repeat: negative count";
  Repeat (k, body)

let of_list l = Seq (List.map (fun v -> Fire v) l)

let rec length = function
  | Fire _ -> 1
  | Seq l ->
      List.fold_left
        (fun acc s ->
          let n = length s in
          if acc > max_int - n then max_int else acc + n)
        0 l
  | Repeat (k, body) ->
      let n = length body in
      if n <> 0 && k > max_int / n then max_int else k * n

let rec iter t ~f =
  match t with
  | Fire v -> f v
  | Seq l -> List.iter (fun s -> iter s ~f) l
  | Repeat (k, body) ->
      for _ = 1 to k do
        iter body ~f
      done

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun v -> acc := v :: !acc);
  List.rev !acc

let fire_counts ~num_nodes t =
  let counts = Array.make num_nodes 0 in
  let rec go mult = function
    | Fire v -> counts.(v) <- counts.(v) + mult
    | Seq l -> List.iter (go mult) l
    | Repeat (k, body) -> if k > 0 then go (mult * k) body
  in
  go 1 t;
  counts

let run machine t = iter t ~f:(Ccs_exec.Machine.fire machine)

let rec compress t =
  match t with
  | Fire _ -> t
  | Repeat (0, _) -> Seq []
  | Repeat (1, body) -> compress body
  | Repeat (k, body) -> (
      match compress body with
      | Seq [] -> Seq []
      | Repeat (k', inner) -> Repeat (k * k', inner)
      | body' -> Repeat (k, body'))
  | Seq l ->
      (* Flatten nested sequences. *)
      let flat =
        List.concat_map
          (fun s ->
            match compress s with Seq inner -> inner | other -> [ other ])
          l
      in
      (* Run-length encode adjacent equal items (treating Repeat (k, x)
         next to x as mergeable). *)
      let base = function Repeat (_, x) -> x | x -> x in
      let count = function Repeat (k, _) -> k | _ -> 1 in
      let rec rle acc = function
        | [] -> List.rev acc
        | x :: rest -> (
            match acc with
            | prev :: acc' when base prev = base x ->
                rle (Repeat (count prev + count x, base x) :: acc') rest
            | _ -> rle (x :: acc) rest)
      in
      (match rle [] flat with [ single ] -> single | items -> Seq items)

let equivalent a b = to_list a = to_list b

let rec pp fmt = function
  | Fire v -> Format.fprintf fmt "%d" v
  | Seq l ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
           pp)
        l
  | Repeat (k, body) -> Format.fprintf fmt "%d*%a" k pp body
