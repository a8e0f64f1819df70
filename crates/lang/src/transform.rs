//! The Fig. 4 automated-adoption transformation: legacy contract →
//! SMACS-enabled contract.
//!
//! For every externally callable method (`public` / `external`):
//!
//! 1. a `bytes token` parameter is appended to the signature, and
//! 2. `assert(verify(token));` is inserted before the original body.
//!
//! A public method that is *also called internally* is split (as Fig. 4
//! shows for `h`): the original body moves to a `private` sibling named
//! `_name`, the public wrapper verifies and delegates, and every internal
//! call site is rewired to `_name` — so internal calls never re-verify,
//! while every externally reachable entry point does.
//!
//! Constructors (functions named after their contract, Solidity v0.4
//! style) and fallback functions are left untouched: the former run once
//! at deployment, the latter carry no calldata to hold a token.

use std::collections::HashSet;

use crate::ast::{ContractDef, Expr, Function, Param, SourceUnit, Stmt, TypeName, Visibility};

/// Name of the injected token parameter.
pub const TOKEN_PARAM: &str = "token";

/// Transform every contract in the unit.
///
/// ```
/// use smacs_lang::{parse, print_source, smacs_enable};
///
/// let legacy = "contract C { function f() external { x = 1; } }";
/// let enabled = smacs_enable(&parse(legacy).unwrap());
/// let source = print_source(&enabled);
/// assert!(source.contains("function f(bytes token) external"));
/// assert!(source.contains("assert(verify(token))"));
/// ```
pub fn smacs_enable(unit: &SourceUnit) -> SourceUnit {
    SourceUnit {
        contracts: unit.contracts.iter().map(transform_contract).collect(),
    }
}

fn transform_contract(contract: &ContractDef) -> ContractDef {
    let internally_called = internally_called_names(contract);
    let split = split_names(contract, &internally_called);
    let mut functions = Vec::new();
    for function in &contract.functions {
        if is_exempt(function, contract) {
            functions.push(function.clone());
            continue;
        }
        if !function.visibility.is_externally_callable() {
            // internal/private bodies keep their logic, but their call
            // sites into split methods must be rewired too.
            let mut kept = function.clone();
            rewrite_calls(&mut kept.body, &split);
            functions.push(kept);
            continue;
        }
        let needs_split = internally_called.contains(&function.name);
        if needs_split {
            // Private body half: original logic under `_name`, with its own
            // internal call sites rewired.
            let private_name = format!("_{}", function.name);
            let mut private_half = function.clone();
            private_half.name = private_name.clone();
            private_half.visibility = Visibility::Private;
            rewrite_calls(&mut private_half.body, &split);

            // Public wrapper: verify, then delegate.
            let mut wrapper = function.clone();
            wrapper.params.push(token_param());
            let delegate_args: Vec<Expr> = function
                .params
                .iter()
                .map(|p| Expr::ident(p.name.clone()))
                .collect();
            wrapper.body = vec![
                verify_stmt(),
                Stmt::Expr(Expr::call(private_name, delegate_args)),
            ];
            functions.push(wrapper);
            functions.push(private_half);
        } else {
            let mut guarded = function.clone();
            guarded.params.push(token_param());
            rewrite_calls(&mut guarded.body, &split);
            guarded.body.insert(0, verify_stmt());
            functions.push(guarded);
        }
    }
    ContractDef {
        name: contract.name.clone(),
        state_vars: contract.state_vars.clone(),
        functions,
    }
}

fn is_exempt(function: &Function, contract: &ContractDef) -> bool {
    function.is_fallback || function.name == contract.name || function.name == "constructor"
}

fn token_param() -> Param {
    Param {
        ty: TypeName::Elementary("bytes".into()),
        name: TOKEN_PARAM.into(),
    }
}

fn verify_stmt() -> Stmt {
    Stmt::Expr(Expr::call(
        "assert",
        vec![Expr::call("verify", vec![Expr::ident(TOKEN_PARAM)])],
    ))
}

/// Names of methods that appear as direct internal calls (`name(...)`)
/// anywhere in the contract.
fn internally_called_names(contract: &ContractDef) -> HashSet<String> {
    let mut called = HashSet::new();
    for function in &contract.functions {
        for_each_callee(&mut function.body.clone(), &mut |name| {
            called.insert(name.clone());
        });
    }
    // Only names that actually are methods of this contract matter.
    called.retain(|name| contract.function(name).is_some());
    called
}

/// The subset of internally called names that are public/external — the
/// ones the transformation splits (their call sites must be rewired to the
/// `_name` private half).
fn split_names(contract: &ContractDef, internally_called: &HashSet<String>) -> HashSet<String> {
    internally_called
        .iter()
        .filter(|name| {
            contract
                .function(name)
                .map(|f| f.visibility.is_externally_callable() && !is_exempt(f, contract))
                .unwrap_or(false)
        })
        .cloned()
        .collect()
}

/// Visit the callee name of every direct call `name(...)` in `body`, in
/// source order — the one walk of the statement and expression grammar
/// that both collecting and rewriting call sites ride on.
fn for_each_callee(body: &mut [Stmt], visit: &mut dyn FnMut(&mut String)) {
    for stmt in body {
        match stmt {
            Stmt::VarDecl { value, .. } | Stmt::Return(value) => {
                if let Some(value) = value {
                    callees_in(value, visit);
                }
            }
            Stmt::Assign { target, value, .. } => {
                callees_in(target, visit);
                callees_in(value, visit);
            }
            Stmt::Expr(e) => callees_in(e, visit),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                callees_in(cond, visit);
                for_each_callee(then_branch, visit);
                if let Some(else_branch) = else_branch {
                    for_each_callee(else_branch, visit);
                }
            }
            Stmt::While { cond, body } => {
                callees_in(cond, visit);
                for_each_callee(body, visit);
            }
            Stmt::Throw => {}
        }
    }
}

fn callees_in(expr: &mut Expr, visit: &mut dyn FnMut(&mut String)) {
    match expr {
        Expr::Call(callee, args) => {
            match callee.as_mut() {
                Expr::Ident(name) => visit(name),
                other => callees_in(other, visit),
            }
            for arg in args {
                callees_in(arg, visit);
            }
        }
        Expr::Member(base, _) | Expr::Unary(_, base) => callees_in(base, visit),
        Expr::Index(left, right) | Expr::Binary(_, left, right) => {
            callees_in(left, visit);
            callees_in(right, visit);
        }
        Expr::Ident(_) | Expr::Number(_) | Expr::Str(_) | Expr::Bool(_) => {}
    }
}

/// Rewrite direct calls `name(...)` → `_name(...)` for every split method.
fn rewrite_calls(body: &mut [Stmt], split: &HashSet<String>) {
    for_each_callee(body, &mut |name| {
        if split.contains(name) {
            name.insert(0, '_');
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::printer::print_source;

    /// The Legacy contract of Fig. 4, in the subset's syntax.
    const LEGACY: &str = r#"
        contract Legacy {
            function f() external {
                h();
                g();
            }
            function h() public {
                g();
            }
            function g() private {
                done = true;
            }
        }
    "#;

    fn verified_first(function: &Function) -> bool {
        matches!(
            function.body.first(),
            Some(Stmt::Expr(Expr::Call(callee, _))) if matches!(callee.as_ref(), Expr::Ident(n) if n == "assert")
        )
    }

    #[test]
    fn fig4_transformation_shape() {
        let unit = parse(LEGACY).unwrap();
        let enabled = smacs_enable(&unit);
        let c = enabled.contract("Legacy").unwrap();

        // f(token) external: verify, then call _h() and g().
        let f = c.function("f").unwrap();
        assert_eq!(f.params.last().unwrap().name, TOKEN_PARAM);
        assert!(verified_first(f));
        let printed = print_source(&enabled);
        assert!(printed.contains("assert(verify(token))"), "{printed}");
        // f's internal call to h was rewired to _h.
        let f_src = &printed[printed.find("function f").unwrap()..];
        assert!(f_src.contains("_h()"), "{printed}");

        // h was split: public wrapper h(token) + private _h with the body.
        let h = c.function("h").unwrap();
        assert!(verified_first(h));
        assert_eq!(h.params.last().unwrap().name, TOKEN_PARAM);
        let h_private = c.function("_h").unwrap();
        assert_eq!(h_private.visibility, Visibility::Private);
        assert!(!verified_first(h_private));

        // g stays private and untouched.
        let g = c.function("g").unwrap();
        assert_eq!(g.visibility, Visibility::Private);
        assert!(!verified_first(g));
        assert!(g.params.is_empty());
    }

    #[test]
    fn transformed_source_reparses() {
        let unit = parse(LEGACY).unwrap();
        let enabled = smacs_enable(&unit);
        let printed = print_source(&enabled);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(reparsed, enabled, "printed:\n{printed}");
    }

    #[test]
    fn bank_transformation_guards_both_methods() {
        let src = r#"
            contract Bank {
                mapping(address=>uint) balance;
                function addBalance() public payable {
                    balance[msg.sender] += msg.value;
                }
                function withdraw() public {
                    uint amount = balance[msg.sender];
                    if (msg.sender.call.value(amount)() == false) { throw; }
                    balance[msg.sender] = 0;
                }
            }
        "#;
        let enabled = smacs_enable(&parse(src).unwrap());
        let bank = enabled.contract("Bank").unwrap();
        for name in ["addBalance", "withdraw"] {
            let f = bank.function(name).unwrap();
            assert!(verified_first(f), "{name} must verify first");
            assert_eq!(f.params.last().unwrap().name, TOKEN_PARAM);
        }
        // No splits: neither method is called internally.
        assert!(bank.function("_addBalance").is_none());
        assert!(bank.function("_withdraw").is_none());
        // Original behaviour preserved after the prologue.
        let withdraw = bank.function("withdraw").unwrap();
        assert_eq!(withdraw.body.len(), 4); // verify + 3 original statements
    }

    #[test]
    fn constructor_and_fallback_exempt() {
        let src = r#"
            contract Attacker {
                bool isAttack;
                function Attacker(address _bank) public {
                    isAttack = true;
                }
                function() payable {
                    isAttack = false;
                }
                function strike() public {
                    isAttack = true;
                }
            }
        "#;
        let enabled = smacs_enable(&parse(src).unwrap());
        let attacker = enabled.contract("Attacker").unwrap();
        // v0.4-style constructor untouched.
        let ctor = attacker.function("Attacker").unwrap();
        assert!(!verified_first(ctor));
        assert_eq!(ctor.params.len(), 1);
        // Fallback untouched.
        let fallback = attacker.functions.iter().find(|f| f.is_fallback).unwrap();
        assert!(!verified_first(fallback));
        // Regular public method guarded.
        assert!(verified_first(attacker.function("strike").unwrap()));
    }

    #[test]
    fn existing_params_are_preserved_in_split_delegation() {
        let src = r#"
            contract P {
                function setBoth(uint a, uint b) public {
                    x = a;
                    y = b;
                }
                function caller() public {
                    setBoth(1, 2);
                }
            }
        "#;
        let enabled = smacs_enable(&parse(src).unwrap());
        let c = enabled.contract("P").unwrap();
        // setBoth split because caller() invokes it internally.
        let wrapper = c.function("setBoth").unwrap();
        assert_eq!(wrapper.params.len(), 3); // a, b, token
        let Stmt::Expr(Expr::Call(_, args)) = &wrapper.body[1] else {
            panic!("wrapper must delegate");
        };
        assert_eq!(args.len(), 2); // forwards a and b, not the token
                                   // caller() rewired to the private half.
        let printed = print_source(&enabled);
        let caller_src = &printed[printed.find("function caller").unwrap()..];
        assert!(caller_src.contains("_setBoth(1, 2)"), "{printed}");
    }

    #[test]
    fn idempotent_on_already_internal_contracts() {
        let src = "contract Q { function helper() internal { x = 1; } }";
        let unit = parse(src).unwrap();
        assert_eq!(smacs_enable(&unit), unit);
    }
}
