//! Runtime program representation: classes, methods, statics.

use crate::opcode::Op;
use jepo_jlang::Type;
use std::collections::HashMap;

/// Index of a class in a [`Program`].
pub type ClassId = u32;
/// Index of a method in a [`Program`].
pub type MethodId = u32;

/// A compiled method.
#[derive(Debug, Clone)]
pub struct Method {
    /// Owning class.
    pub class: ClassId,
    /// Simple name.
    pub name: String,
    /// `Class.name` for diagnostics and profiler output.
    pub qualified: String,
    /// Parameter count (excluding receiver).
    pub arity: u8,
    /// Whether an instance method (receiver in local 0).
    pub is_instance: bool,
    /// Number of local slots (including params / receiver).
    pub locals: u16,
    /// Declared return type (for conversion on return).
    pub ret: Type,
    /// Bytecode.
    pub code: Vec<Op>,
    /// Source line of the declaration (profiler/debug).
    pub line: u32,
}

/// A compiled class.
#[derive(Debug, Clone, Default)]
pub struct Class {
    /// Simple name.
    pub name: String,
    /// Superclass, if any.
    pub superclass: Option<ClassId>,
    /// Instance field slots: `(name, type)`, superclass fields first.
    pub fields: Vec<(String, Type)>,
    /// Method table: name → overloads by arity (own methods only; lookup
    /// walks superclasses). Keyed by name alone so runtime resolution
    /// can probe with a borrowed `&str` — the old `(String, u8)` key
    /// forced a `String` allocation on every virtual call site.
    pub methods: HashMap<String, Vec<(u8, MethodId)>>,
    /// Constructor ids by arity.
    pub ctors: HashMap<u8, MethodId>,
}

impl Class {
    /// Register an own method under `(name, arity)`.
    pub fn add_method(&mut self, name: &str, arity: u8, mid: MethodId) {
        match self.methods.get_mut(name) {
            Some(overloads) => overloads.push((arity, mid)),
            None => {
                self.methods.insert(name.to_string(), vec![(arity, mid)]);
            }
        }
    }

    /// Own method by `(name, arity)` — no allocation, no hierarchy walk.
    pub fn own_method(&self, name: &str, arity: u8) -> Option<MethodId> {
        self.methods
            .get(name)?
            .iter()
            .find(|(a, _)| *a == arity)
            .map(|&(_, m)| m)
    }
}

/// A static field (global slot).
#[derive(Debug, Clone)]
pub struct StaticField {
    /// `Class.field` qualified name.
    pub qualified: String,
    /// Declared type.
    pub ty: Type,
}

/// A fully compiled program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All classes.
    pub classes: Vec<Class>,
    /// All methods.
    pub methods: Vec<Method>,
    /// Static field descriptors (values live in the interpreter).
    pub statics: Vec<StaticField>,
    /// Method id of `main`, if discovered.
    pub main: Option<MethodId>,
    /// Method ids of `<clinit>` static initializers, in class order.
    pub clinits: Vec<MethodId>,
    /// Prebuilt name → class-id index. The compiler populates it once
    /// at program construction ([`Program::rebuild_class_index`]); when
    /// present, [`Program::class_by_name`] is a hash probe instead of a
    /// linear scan over every class (`instanceof` and exception-class
    /// resolution sit on the interpreter hot path).
    pub class_index: HashMap<String, ClassId>,
}

impl Program {
    /// (Re)build the name → class-id index. Call after all classes are
    /// pushed; hand-assembled programs that skip it fall back to the
    /// linear scan.
    pub fn rebuild_class_index(&mut self) {
        self.class_index = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i as ClassId))
            .collect();
    }

    /// Find a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        if self.class_index.is_empty() {
            return self
                .classes
                .iter()
                .position(|c| c.name == name)
                .map(|i| i as ClassId);
        }
        self.class_index.get(name).copied()
    }

    /// Resolve `(class, name, arity)` walking up the hierarchy.
    pub fn resolve_method(&self, class: ClassId, name: &str, arity: u8) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            let c = &self.classes[cid as usize];
            if let Some(m) = c.own_method(name, arity) {
                return Some(m);
            }
            cur = c.superclass;
        }
        None
    }

    /// Whether `sub` is `sup` or a subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c as usize].superclass;
        }
        false
    }

    /// Total bytecode size (diagnostics; instrumentation growth checks).
    pub fn code_size(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        let mut base = Class {
            name: "Base".into(),
            superclass: None,
            fields: vec![("x".into(), Type::Prim(jepo_jlang::PrimType::Int))],
            ..Class::default()
        };
        base.add_method("f", 0, 0);
        let mut derived = Class {
            name: "Derived".into(),
            superclass: Some(0),
            fields: vec![
                ("x".into(), Type::Prim(jepo_jlang::PrimType::Int)),
                ("y".into(), Type::Prim(jepo_jlang::PrimType::Double)),
            ],
            ..Class::default()
        };
        derived.add_method("g", 1, 1);
        let mut p = Program {
            classes: vec![base, derived],
            methods: vec![
                Method {
                    class: 0,
                    name: "f".into(),
                    qualified: "Base.f".into(),
                    arity: 0,
                    is_instance: true,
                    locals: 1,
                    ret: Type::Void,
                    code: vec![Op::ReturnVoid],
                    line: 1,
                },
                Method {
                    class: 1,
                    name: "g".into(),
                    qualified: "Derived.g".into(),
                    arity: 1,
                    is_instance: true,
                    locals: 2,
                    ret: Type::Void,
                    code: vec![Op::ReturnVoid],
                    line: 2,
                },
            ],
            statics: vec![],
            main: None,
            clinits: vec![],
            ..Program::default()
        };
        p.rebuild_class_index();
        p
    }

    #[test]
    fn method_resolution_walks_hierarchy() {
        let p = tiny_program();
        assert_eq!(p.resolve_method(1, "g", 1), Some(1));
        assert_eq!(p.resolve_method(1, "f", 0), Some(0), "inherited");
        assert_eq!(p.resolve_method(0, "g", 1), None, "not visible upward");
        assert_eq!(p.resolve_method(1, "f", 2), None, "arity mismatch");
    }

    #[test]
    fn subclass_relation() {
        let p = tiny_program();
        assert!(p.is_subclass(1, 0));
        assert!(p.is_subclass(0, 0));
        assert!(!p.is_subclass(0, 1));
    }
}
