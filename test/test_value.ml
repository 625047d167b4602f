(** Unit tests for meta values: conversions, conformance, environments,
    printing. *)

open Tutil
module Value = Ms2_meta.Value
module Mtype = Ms2_mtype.Mtype
module Sort = Ms2_mtype.Sort
open Ms2_syntax.Ast

let vnode_id name = Value.Vnode (N_id (ident name))

let of_actual () =
  let a =
    Act_list
      [ Act_node (N_id (ident "a"));
        Act_tuple [ ("k", Act_node (N_id (ident "b"))) ] ]
  in
  match Value.of_actual a with
  | Value.Vlist [ Value.Vnode (N_id x); Value.Vtuple [ ("k", _) ] ] ->
      Alcotest.(check string) "first element" "a" x.id_name
  | v -> Alcotest.failf "unexpected shape: %s" (Value.type_name v)

let conforms () =
  let open Value in
  let check name v ty expected =
    Alcotest.(check bool) name expected (conforms v ty)
  in
  check "int" (Vint 3) Mtype.Int true;
  check "string" (Vstring "s") Mtype.String true;
  check "id as id" (vnode_id "x") (Mtype.Ast Sort.Id) true;
  (* subsort: an id conforms to @exp *)
  check "id as exp" (vnode_id "x") (Mtype.Ast Sort.Exp) true;
  check "id not stmt" (vnode_id "x") (Mtype.Ast Sort.Stmt) false;
  check "empty list conforms to any list" (Vlist [])
    (Mtype.List (Mtype.Ast Sort.Decl)) true;
  check "homogeneous list" (Vlist [ vnode_id "a"; vnode_id "b" ])
    (Mtype.List (Mtype.Ast Sort.Id)) true;
  check "heterogeneous list fails"
    (Vlist [ vnode_id "a"; Vint 1 ])
    (Mtype.List (Mtype.Ast Sort.Id))
    false;
  check "tuple field names matter"
    (Vtuple [ ("k", vnode_id "a") ])
    (Mtype.Tuple [ { Mtype.fld_name = "w"; fld_type = Mtype.Ast Sort.Id } ])
    false;
  check "tuple ok"
    (Vtuple [ ("k", vnode_id "a") ])
    (Mtype.Tuple [ { Mtype.fld_name = "k"; fld_type = Mtype.Ast Sort.Id } ])
    true

let defaults () =
  let open Value in
  Alcotest.(check bool) "list default empty" true
    (default_of_type (Mtype.List Mtype.Int) = Vlist []);
  Alcotest.(check bool) "int default zero" true
    (default_of_type Mtype.Int = Vint 0);
  Alcotest.(check bool) "ast default void" true
    (default_of_type (Mtype.Ast Sort.Stmt) = Vvoid);
  match default_of_type
          (Mtype.Tuple
             [ { Mtype.fld_name = "n"; fld_type = Mtype.Int };
               { Mtype.fld_name = "l"; fld_type = Mtype.List Mtype.Int } ])
  with
  | Vtuple [ ("n", Vint 0); ("l", Vlist []) ] -> ()
  | v -> Alcotest.failf "tuple default: %s" (Value.to_string v)

let environments () =
  let open Value in
  let env = create_env () in
  bind env "x" (Vint 1);
  Alcotest.(check bool) "lookup" true (lookup env "x" = Some (Vint 1));
  with_scope env (fun () ->
      bind env "x" (Vint 2);
      Alcotest.(check bool) "shadowed" true (lookup env "x" = Some (Vint 2)));
  Alcotest.(check bool) "popped" true (lookup env "x" = Some (Vint 1));
  (* derived environments share only the global scope *)
  bind_global env "g" (Vint 9);
  push_scope env;
  bind env "local" (Vint 5);
  let child = derived env in
  Alcotest.(check bool) "global visible" true
    (lookup child "g" = Some (Vint 9));
  Alcotest.(check bool) "locals hidden" true (lookup child "local" = None);
  pop_scope env

(* A global holds every lambda in its value, in lists and tuples too,
   with the bindings it captured frozen; a value without one is stored
   as it is. *)
let globals_freeze_lambdas () =
  let open Value in
  let env = create_env () in
  push_scope env;
  bind env "base" (Vint 5);
  let lambda =
    Vclosure
      { cl_params = [ ("y", Mtype.Int) ]; cl_body = Body_expr (e_ident "base");
        cl_scopes = env.scopes }
  in
  bind_global env "ks" (Vtuple [ ("f", Vlist [ lambda; Vint 1 ]) ]);
  ignore (assign env ~loc:Ms2_support.Loc.dummy "base" (Vint 10));
  (match lookup env "ks" with
  | Some (Vtuple [ ("f", Vlist [ Vclosure { cl_scopes = [ Frozen m ]; _ };
                                  Vint 1 ]) ]) ->
      Alcotest.(check bool) "captured by value" true
        (Ms2_support.Smap.find_opt "base" m = Some (Vint 5))
  | v ->
      Alcotest.failf "not frozen: %s"
        (Option.fold ~none:"unbound" ~some:to_string v));
  let plain = Vlist [ Vint 1; Vstring "s" ] in
  bind_global env "plain" plain;
  Alcotest.(check bool) "stored as it is" true
    (match lookup env "plain" with Some v -> v == plain | None -> false)

let printing () =
  let open Value in
  Alcotest.(check string) "int" "3" (to_string (Vint 3));
  Alcotest.(check string) "string" "\"s\"" (to_string (Vstring "s"));
  Alcotest.(check string) "list" "[1; 2]"
    (to_string (Vlist [ Vint 1; Vint 2 ]));
  check_contains ~msg:"tuple" (to_string (Vtuple [ ("k", Vint 1) ])) "k = 1";
  Alcotest.(check string) "node type name" "@id"
    (type_name (vnode_id "x"));
  Alcotest.(check string) "builtin" "<builtin map>"
    (to_string (Vbuiltin "map"))

let () =
  Alcotest.run "value"
    [ ( "value",
        [ tc "of_actual" of_actual;
          tc "conforms" conforms;
          tc "default values" defaults;
          tc "environments" environments;
          tc "globals freeze lambdas" globals_freeze_lambdas;
          tc "printing" printing ] ) ]
