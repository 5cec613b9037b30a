type t = {
  cache_words : int;
  block_words : int;
  policy : Ccs_cache.Cache.policy;
}

(* The c of c-bounded partitions: the bound in the paper's minBW_3. *)
let augmentation = 3

let make ?(policy = Ccs_cache.Cache.Lru) ~cache_words ~block_words () =
  ignore
    (Ccs_cache.Cache.config ~policy ~size_words:cache_words
       ~block_words ());
  { cache_words; block_words; policy }

let cache_config t =
  Ccs_cache.Cache.config ~policy:t.policy ~size_words:t.cache_words
    ~block_words:t.block_words ()

let partition_bound t = augmentation * t.cache_words

let pp fmt t =
  Format.fprintf fmt "M=%dw B=%dw c=%d" t.cache_words t.block_words
    augmentation
