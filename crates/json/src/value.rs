//! The [`Json`] tree and the [`ToJson`] conversion trait.

/// A JSON document. Objects keep insertion order (a `Vec`, not a map)
/// so hand-written [`ToJson`] impls control field order exactly as
/// `#[derive(Serialize)]` did via declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers; serialized without decimal point or exponent.
    Int(i64),
    /// Unsigned integers, kept apart from [`Json::Int`] so `u64` values
    /// above `i64::MAX` survive.
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Start an ordered object: `Json::object().field("a", &1).build()`.
    pub fn object() -> ObjectBuilder {
        ObjectBuilder { fields: Vec::new() }
    }

    /// An array from anything iterable of convertible items.
    pub fn array<T: ToJson, I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Serde's externally-tagged shape for an enum struct/newtype
    /// variant: `{"Name": payload}`.
    pub fn variant(name: &str, payload: Json) -> Json {
        Json::Obj(vec![(name.to_owned(), payload)])
    }
}

/// Ordered-field object builder; see [`Json::object`].
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    fields: Vec<(String, Json)>,
}

impl ObjectBuilder {
    pub fn field<T: ToJson + ?Sized>(mut self, name: &str, value: &T) -> Self {
        self.fields.push((name.to_owned(), value.to_json()));
        self
    }

    /// Append an already-built [`Json`] value.
    pub fn raw(mut self, name: &str, value: Json) -> Self {
        self.fields.push((name.to_owned(), value));
        self
    }

    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

/// Conversion into a [`Json`] tree — the replacement for
/// `serde::Serialize` throughout the workspace. Implementations list
/// fields in struct declaration order so output bytes match the
/// derive-generated form.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_field_order() {
        let j = Json::object().field("z", &1u32).field("a", &2u32).field("m", &3u32).build();
        match j {
            Json::Obj(fields) => {
                let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, ["z", "a", "m"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn option_maps_to_null_or_value() {
        assert_eq!(None::<u32>.to_json(), Json::Null);
        assert_eq!(Some(4u32).to_json(), Json::UInt(4));
    }

    #[test]
    fn tuples_become_arrays() {
        assert_eq!((1u32, 2u32).to_json(), Json::Arr(vec![Json::UInt(1), Json::UInt(2)]));
    }

    #[test]
    fn u64_above_i64_max_survives() {
        let v = u64::MAX;
        assert_eq!(v.to_json(), Json::UInt(u64::MAX));
    }

    #[test]
    fn variant_shape_is_externally_tagged() {
        assert_eq!(
            Json::variant("Fixed", Json::UInt(7)),
            Json::Obj(vec![("Fixed".into(), Json::UInt(7))])
        );
    }
}
