(* The serve-mix traffic: a seeded, interleaved sequence of requests over
   the suite apps, with the plan-cache hits and misses it must cause
   known before the first request is sent.

   Warm-up sends each app's base request once (a miss) and then
   [warm_repeats] more times (hits), one at a time.  The timed mix then
   holds only keys that are already stored or that it requests exactly
   once, so no request can race a concurrent first build of its key and
   the daemon's hit and miss counters are exact. *)

type op =
  | Warm of int  (** byte-identical repeat of app [i]'s base request *)
  | Reformatted of int * int
      (** app [i]'s base graph text with comment line [k] added: same
          plan key, bytes never sent before *)
  | Cold of int * int
      (** app [i] at the [k]-th cache size of its ladder: a new key *)
  | Scrape  (** [GET /metrics] *)

let block_words = 16
let base_cache_words = 512

(* Cold keys climb from just above the base size, one block at a time,
   so they never repeat a key.  The ladder is the same for every seed:
   the seed reorders the mix, it does not change which plans are built. *)
let cold_cache_words k = base_cache_words + (block_words * (k + 1))

let warm_repeats = 3

(* Shares of the timed mix, in requests per 100. *)
let reformatted_per_100 = 8
let cold_per_100 = 5
let scrape_per_100 = 1

type t = { ops : op array; apps : int }

let count p t = Array.fold_left (fun n op -> if p op then n + 1 else n) 0 t.ops

(* [make ~seed ~apps ~requests]: [requests] timed operations.  Every app
   gets the same number of each request kind, give or take one, so the
   cost of the mix hardly depends on the seed. *)
let make ~seed ~apps ~requests =
  if apps < 1 || requests < 1 then invalid_arg "Mix.make";
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let share per_100 = requests * per_100 / 100 in
  let n_ref = share reformatted_per_100
  and n_cold = share cold_per_100
  and n_scrape = share scrape_per_100 in
  let n_warm = requests - n_ref - n_cold - n_scrape in
  (* Apps in a fresh seeded order every [apps] draws. *)
  let next_app =
    let deck = Array.init apps Fun.id and pos = ref apps in
    fun () ->
      if !pos = apps then begin
        Gen.shuffle rng deck;
        pos := 0
      end;
      incr pos;
      deck.(!pos - 1)
  in
  let cold_seen = Array.make apps 0 in
  let ops =
    Array.concat
      [
        Array.init n_warm (fun _ -> Warm (next_app ()));
        Array.init n_ref (fun k -> Reformatted (next_app (), k));
        Array.init n_cold (fun _ ->
            let a = next_app () in
            cold_seen.(a) <- cold_seen.(a) + 1;
            Cold (a, cold_seen.(a) - 1));
        Array.make n_scrape Scrape;
      ]
  in
  Gen.shuffle rng ops;
  { ops; apps }

(* Counter values the daemon must report after warm-up plus the mix. *)
let planned_misses t = t.apps + count (function Cold _ -> true | _ -> false) t

let planned_hits t =
  (t.apps * warm_repeats)
  + count (function Warm _ | Reformatted _ -> true | _ -> false) t

let request_line ~graph_text ~cache_words =
  Ccs.Json.to_string
    (Ccs.Json.Obj
       [
         ("op", Ccs.Json.String "plan");
         ("graph", Ccs.Json.String graph_text);
         ("cache_words", Ccs.Json.Int cache_words);
         ("block_words", Ccs.Json.Int block_words);
       ])

(* The request line for [op], given each app's base graph text. *)
let line texts = function
  | Warm a -> request_line ~graph_text:texts.(a) ~cache_words:base_cache_words
  | Reformatted (a, k) ->
      request_line
        ~graph_text:(Printf.sprintf "# reformatted %d\n%s" k texts.(a))
        ~cache_words:base_cache_words
  | Cold (a, k) ->
      request_line ~graph_text:texts.(a) ~cache_words:(cold_cache_words k)
  | Scrape -> invalid_arg "Mix.line: a scrape is not a protocol request"

(* A plan response with the fields that may differ between a build and a
   hit ([cached], [elapsed_us]) removed; [None] unless it parses as an
   [ok:true] object. *)
let normalize response =
  match Ccs.Json.of_string response with
  | Ok (Ccs.Json.Obj fields) when List.assoc_opt "ok" fields = Some (Ccs.Json.Bool true) ->
      Some
        (Ccs.Json.to_string
           (Ccs.Json.Obj
              (List.filter (fun (k, _) -> k <> "cached" && k <> "elapsed_us") fields)))
  | _ -> None

let cached response =
  match Ccs.Json.of_string response with
  | Ok v -> Ccs.Json.member "cached" v = Some (Ccs.Json.Bool true)
  | Error _ -> false
