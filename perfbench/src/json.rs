//! A minimal JSON object writer (the workspace has no JSON serializer).

/// An object under construction; keys keep insertion order.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn field(&mut self, key: &str, value: String) -> &mut Obj {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Obj {
        self.field(key, format!("\"{v}\""))
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Obj {
        self.field(key, v.to_string())
    }

    /// A finite float, printed with every digit Rust's shortest
    /// round-trip form has.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Obj {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.field(key, format!("{v:?}"))
    }

    pub fn ints(&mut self, key: &str, v: &[u64]) -> &mut Obj {
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        self.field(key, format!("[{}]", items.join(",")))
    }

    pub fn obj(&mut self, key: &str, v: Obj) -> &mut Obj {
        self.field(key, v.finish())
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}
