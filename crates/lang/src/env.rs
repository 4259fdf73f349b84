//! The persistent binding environment every interpreter of SPCF shares.
//!
//! The concrete and interval semantics, the interval type system, the
//! abstract interpreter and the symbolic executor all evaluate under
//! lexical scope with the same discipline: a λ or μ body extends its
//! closure's environment, and the extension must not disturb anyone else
//! holding that environment. [`Env`] is an `Rc`-linked list of bindings,
//! innermost first, so a clone and a bind are both `O(1)` and an
//! extension shares every binding made before it — the two sides of a
//! symbolic fork share the bindings made before the fork, and a closure
//! captures its scope without copying it.

use std::borrow::Borrow;
use std::rc::Rc;

/// A persistent environment binding keys `K` to values `V`.
///
/// `K` is whatever the interpreter already holds for a name: a shared
/// [`Name`](crate::Name), or a `&str` borrowed from the AST.
pub struct Env<K, V>(Option<Rc<Binding<K, V>>>);

struct Binding<K, V> {
    name: K,
    value: V,
    rest: Env<K, V>,
}

impl<K, V> Env<K, V> {
    /// The empty environment.
    pub fn empty() -> Self {
        Env(None)
    }

    /// Extends the environment with one binding, shadowing any earlier
    /// binding of the same name; `self` is left unchanged.
    pub fn bind(&self, name: K, value: V) -> Self {
        Env(Some(Rc::new(Binding {
            name,
            value,
            rest: self.clone(),
        })))
    }

    /// The innermost binding and the environment under it, or `None`
    /// when empty.
    pub fn head(&self) -> Option<(&K, &V, &Self)> {
        self.0.as_deref().map(|b| (&b.name, &b.value, &b.rest))
    }

    /// True when both environments are the same list (both empty, or
    /// sharing their innermost binding), so they bind the same names to
    /// the same values without inspecting either.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<K: Borrow<str>, V> Env<K, V> {
    /// Looks a name up, innermost binding first.
    pub fn lookup(&self, name: &str) -> Option<&V> {
        let mut cur = self;
        while let Some((k, v, rest)) = cur.head() {
            if k.borrow() == name {
                return Some(v);
            }
            cur = rest;
        }
        None
    }
}

impl<K, V> Clone for Env<K, V> {
    fn clone(&self) -> Self {
        Env(self.0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Name;

    fn len<K, V>(env: &Env<K, V>) -> usize {
        std::iter::successors(env.head(), |(_, _, rest)| rest.head()).count()
    }

    #[test]
    fn lookup_finds_innermost() {
        let x: Name = Name::from("x");
        let env = Env::empty().bind(x.clone(), 1.0).bind(x.clone(), 2.0);
        assert_eq!(env.lookup("x"), Some(&2.0));
        assert_eq!(len(&env), 2);
        assert!(env.lookup("y").is_none());
    }

    #[test]
    fn bind_is_persistent() {
        let x: Name = Name::from("x");
        let base = Env::empty().bind(x.clone(), 1.0);
        let extended = base.bind(Name::from("y"), 2.0);
        assert_eq!(len(&base), 1);
        assert_eq!(len(&extended), 2);
        assert_eq!(base.lookup("x"), Some(&1.0));
        assert!(base.lookup("y").is_none());
        assert!(extended.head().unwrap().2.ptr_eq(&base));
    }
}
