(** FIRST sets: which tokens can begin a phrase of a given sort.

    The pattern parser "requires that detecting the end of a repetition
    or the presence of an optional element require only one token
    lookahead" (paper, §2).  Deciding that needs to know, for each
    syntactic sort, the set of tokens a phrase of that sort can start
    with.  Token sets are represented as lists of {!tclass}: exact tokens
    plus classes for the unbounded token families. *)

open Ms2_syntax
module Sort = Ms2_mtype.Sort

type tclass =
  | Exact of Token.t
  | Any_ident
  | Any_int
  | Any_char
  | Any_string

let matches (c : tclass) (tok : Token.t) : bool =
  match (c, tok) with
  | Exact t, tok -> Token.equal t tok
  | Any_ident, Token.IDENT _ -> true
  | Any_int, Token.INT_LIT _ | Any_int, Token.FLOAT_LIT _ -> true
  | Any_char, Token.CHAR_LIT _ -> true
  | Any_string, Token.STRING_LIT _ -> true
  | (Any_ident | Any_int | Any_char | Any_string), _ -> false

(** Do two token classes overlap (is there a token matched by both)? *)
let overlap (a : tclass) (b : tclass) : bool =
  match (a, b) with
  | Exact t1, Exact t2 -> Token.equal t1 t2
  | Exact t, c | c, Exact t -> matches c t
  | c1, c2 -> c1 = c2

let inter (xs : tclass list) (ys : tclass list) : (tclass * tclass) list =
  List.concat_map (fun x -> List.filter_map (fun y -> if overlap x y then Some (x, y) else None) ys) xs

let pp_tclass ppf = function
  | Exact t -> Fmt.pf ppf "%S" (Token.to_string t)
  | Any_ident -> Fmt.string ppf "<identifier>"
  | Any_int -> Fmt.string ppf "<integer>"
  | Any_char -> Fmt.string ppf "<character>"
  | Any_string -> Fmt.string ppf "<string>"

(* Tokens that can begin an expression.  Placeholders ([$]) may begin any
   phrase inside a template, so DOLLAR is in every sort's FIRST set. *)
let first_exp : tclass list =
  [ Any_ident; Any_int; Any_char; Any_string;
    Exact Token.LPAREN; Exact Token.STAR; Exact Token.AMP;
    Exact Token.MINUS; Exact Token.PLUS; Exact Token.BANG;
    Exact Token.TILDE; Exact Token.PLUSPLUS; Exact Token.MINUSMINUS;
    Exact (Token.KW Token.Ksizeof); Exact Token.DOLLAR ]

let type_spec_keywords : Token.keyword list =
  [ Token.Kvoid; Token.Kchar; Token.Kint; Token.Kfloat; Token.Kdouble;
    Token.Kshort; Token.Klong; Token.Ksigned; Token.Kunsigned; Token.Kenum;
    Token.Kstruct; Token.Kunion; Token.Kconst; Token.Kvolatile ]

let storage_keywords : Token.keyword list =
  [ Token.Ktypedef; Token.Kextern; Token.Kstatic; Token.Kauto;
    Token.Kregister ]

let first_typespec : tclass list =
  Exact Token.AT :: Exact Token.DOLLAR :: Any_ident
  :: List.map (fun k -> Exact (Token.KW k)) type_spec_keywords

let first_decl : tclass list =
  first_typespec
  @ List.map (fun k -> Exact (Token.KW k)) storage_keywords
  @ [ Exact (Token.KW Token.Kmetadcl) ]

let stmt_keywords : Token.keyword list =
  [ Token.Kif; Token.Kwhile; Token.Kdo; Token.Kfor; Token.Kswitch;
    Token.Kcase; Token.Kdefault; Token.Kreturn; Token.Kbreak;
    Token.Kcontinue; Token.Kgoto ]

let first_stmt : tclass list =
  first_exp
  @ [ Exact Token.LBRACE; Exact Token.SEMI ]
  @ List.map (fun k -> Exact (Token.KW k)) stmt_keywords

let first_declarator : tclass list =
  [ Any_ident; Exact Token.STAR; Exact Token.LPAREN; Exact Token.DOLLAR ]

let first_id : tclass list = [ Any_ident; Exact Token.DOLLAR ]
let first_num : tclass list = [ Any_int; Any_char; Exact Token.DOLLAR ]
let first_param : tclass list = first_decl @ first_declarator

(** FIRST set of a sort. *)
let of_sort (sort : Sort.t) : tclass list =
  match sort with
  | Sort.Id -> first_id
  | Sort.Num -> first_num
  | Sort.Exp -> first_exp
  | Sort.Stmt -> first_stmt
  | Sort.Decl -> first_decl
  | Sort.Typespec -> first_typespec
  | Sort.Declarator | Sort.Init_declarator -> first_declarator
  | Sort.Param -> first_param
  | Sort.Enumerator -> first_id

(* The invocation parser consults the FIRST set of a pattern specifier
   once per token while deciding repetition continuation, and specifiers
   live exactly as long as the macro definition that owns them — so an
   identity-keyed memo turns the per-token list rebuild into a pointer
   probe.  The table is a fixed ring: beyond [memo_slots] live
   specifiers the oldest entry is overwritten, costing only a
   recomputation, so the memo can never grow without bound or retain a
   dead definition's specifiers forever. *)
let memo_slots = 32

(* The ring is probed once per token — the hottest shared-state site in
   the parser — so under a domain pool it is domain-local
   ([Domain.DLS]) rather than locked or atomic: each domain warms its
   own 32 slots (a few recomputations per domain) and then probes with
   zero synchronization and no cross-core cache-line traffic. *)
type pspec_memo = {
  slots : (Ast.pspec * tclass list) option array;
  mutable next : int;
}

let pspec_memo_key : pspec_memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { slots = Array.make memo_slots None; next = 0 })

(* FIRST-set lookups feed the repetition-continuation decision once per
   token; the memo hit/miss split is the signal that tells whether the
   32-slot ring is still sized right for the live macro population. *)
let c_first_hits = Ms2_support.Obs.Metrics.counter "pattern.firstset.memo_hits"
let c_first_misses =
  Ms2_support.Obs.Metrics.counter "pattern.firstset.memo_misses"

(** FIRST set of a pattern specifier. *)
let rec of_pspec (ps : Ast.pspec) : tclass list =
  let memo = Domain.DLS.get pspec_memo_key in
  let rec probe i =
    if i >= memo_slots then begin
      Ms2_support.Obs.Metrics.incr c_first_misses;
      let fs = compute_pspec ps in
      memo.slots.(memo.next) <- Some (ps, fs);
      memo.next <- (memo.next + 1) mod memo_slots;
      fs
    end
    else
      match memo.slots.(i) with
      | Some (p, fs) when p == ps ->
          Ms2_support.Obs.Metrics.incr c_first_hits;
          fs
      | _ -> probe (i + 1)
  in
  probe 0

and compute_pspec (ps : Ast.pspec) : tclass list =
  match ps with
  | Ast.Ps_sort s -> of_sort s
  | Ast.Ps_plus (_, p) -> of_pspec p
  | Ast.Ps_star (_, p) -> of_pspec p  (* may be empty; caller must consider FOLLOW *)
  | Ast.Ps_opt (Some tok, _) -> [ Exact tok ]
  | Ast.Ps_opt (None, p) -> of_pspec p
  | Ast.Ps_tuple pat -> of_pattern pat

(** FIRST set of a pattern (its first element; empty pattern gives []). *)
and of_pattern (pat : Ast.pattern) : tclass list =
  match pat with
  | [] -> []
  | Ast.Pe_token tok :: _ -> [ Exact tok ]
  | Ast.Pe_binder b :: rest -> (
      match b.b_spec with
      | Ast.Ps_star _ | Ast.Ps_opt _ ->
          (* may match empty: include what can follow *)
          of_pspec b.b_spec @ of_pattern rest
      | Ast.Ps_sort _ | Ast.Ps_plus _ | Ast.Ps_tuple _ ->
          of_pspec b.b_spec)

(** Can a phrase of [sort] begin with [tok]?  Used by the invocation
    parser to decide repetition continuation. *)
let sort_starts_with (sort : Sort.t) (tok : Token.t) : bool =
  List.exists (fun c -> matches c tok) (of_sort sort)

let pspec_starts_with (ps : Ast.pspec) (tok : Token.t) : bool =
  List.exists (fun c -> matches c tok) (of_pspec ps)
