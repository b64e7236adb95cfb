//! Pull reading: a document met one [`Token`] at a time, from its text
//! ([`Reader`](crate::Reader)) or from a tree already parsed
//! ([`TreeReader`]). A decoder written against [`Pull`] reads both, so
//! a wire format has one decoder whichever form its input arrives in.

use crate::value::Json;
use std::borrow::Cow;
use std::convert::Infallible;

/// The start of one value: a scalar whole, or the opening bracket of a
/// container, whose members follow through [`Pull::key`] (an object)
/// or [`Pull::item`] (an array).
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    Null,
    Bool(bool),
    /// A negative integer (the numbers [`Json::Int`] holds).
    Int(i64),
    /// A non-negative integer (the numbers [`Json::UInt`] holds).
    UInt(u64),
    Float(f64),
    Str(Cow<'a, str>),
    Obj,
    Arr,
}

/// A source of [`Token`]s, read in document order.
pub trait Pull<'a> {
    /// A syntax error; a tree has none.
    type Error;

    /// The next value's token. After [`Token::Obj`] or [`Token::Arr`]
    /// read the container's members, or [`skip`](Self::skip) them.
    fn value(&mut self) -> Result<Token<'a>, Self::Error>;

    /// In an object: the next member's name, its value to be read
    /// next, or `None` once the object has closed.
    fn key(&mut self) -> Result<Option<Cow<'a, str>>, Self::Error>;

    /// In an array: whether another item follows, to be read next;
    /// `false` once the array has closed.
    fn item(&mut self) -> Result<bool, Self::Error>;

    /// Pass over the rest of the value `token` started: the members of
    /// a container, nothing for a scalar.
    fn skip(&mut self, token: Token<'a>) -> Result<(), Self::Error> {
        match token {
            Token::Obj => {
                while self.key()?.is_some() {
                    let member = self.value()?;
                    self.skip(member)?;
                }
            }
            Token::Arr => {
                while self.item()? {
                    let member = self.value()?;
                    self.skip(member)?;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// [`Pull`] over a [`Json`] tree: the tokens a [`Reader`](crate::Reader)
/// meets in the tree's text, every string borrowed from the tree.
pub struct TreeReader<'a> {
    /// The value [`value`](Pull::value) returns next.
    next: Option<&'a Json>,
    /// The members still to come of each open container, innermost last.
    open: Vec<Members<'a>>,
}

enum Members<'a> {
    Obj(std::slice::Iter<'a, (String, Json)>),
    Arr(std::slice::Iter<'a, Json>),
}

impl<'a> TreeReader<'a> {
    pub fn new(tree: &'a Json) -> Self {
        Self { next: Some(tree), open: Vec::new() }
    }
}

impl<'a> Pull<'a> for TreeReader<'a> {
    type Error = Infallible;

    /// Past the end of the tree, or called out of turn, this reads
    /// `null`.
    fn value(&mut self) -> Result<Token<'a>, Infallible> {
        Ok(match self.next.take() {
            None | Some(Json::Null) => Token::Null,
            Some(Json::Bool(b)) => Token::Bool(*b),
            Some(Json::Int(n)) => Token::Int(*n),
            Some(Json::UInt(n)) => Token::UInt(*n),
            Some(Json::Float(f)) => Token::Float(*f),
            Some(Json::Str(s)) => Token::Str(Cow::Borrowed(s)),
            Some(Json::Obj(fields)) => {
                self.open.push(Members::Obj(fields.iter()));
                Token::Obj
            }
            Some(Json::Arr(items)) => {
                self.open.push(Members::Arr(items.iter()));
                Token::Arr
            }
        })
    }

    fn key(&mut self) -> Result<Option<Cow<'a, str>>, Infallible> {
        let Some(Members::Obj(fields)) = self.open.last_mut() else { return Ok(None) };
        Ok(match fields.next() {
            Some((name, value)) => {
                self.next = Some(value);
                Some(Cow::Borrowed(name))
            }
            None => {
                self.open.pop();
                None
            }
        })
    }

    fn item(&mut self) -> Result<bool, Infallible> {
        let Some(Members::Arr(items)) = self.open.last_mut() else { return Ok(false) };
        Ok(match items.next() {
            Some(value) => {
                self.next = Some(value);
                true
            }
            None => {
                self.open.pop();
                false
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Reader};

    /// Every token of a document, with member names, in order.
    fn tokens<'a, P: Pull<'a>>(p: &mut P) -> Result<Vec<String>, P::Error> {
        fn walk<'a, P: Pull<'a>>(p: &mut P, out: &mut Vec<String>) -> Result<(), P::Error> {
            let token = p.value()?;
            out.push(format!("{token:?}"));
            match token {
                Token::Obj => {
                    while let Some(name) = p.key()? {
                        out.push(format!("key {name}"));
                        walk(p, out)?;
                    }
                }
                Token::Arr => {
                    while p.item()? {
                        walk(p, out)?;
                    }
                }
                _ => {}
            }
            out.push("end".into());
            Ok(())
        }
        let mut out = Vec::new();
        walk(p, &mut out)?;
        Ok(out)
    }

    #[test]
    fn a_tree_pulls_the_tokens_of_its_text() {
        let text = r#"{"a":[1,-2,2.5,"s",true,null,{}],"b\"":{"c":[]},"d":{"e":[[{"f":0}]]}}"#;
        let Ok(tree) = parse(text) else { panic!("well-formed") };
        let from_text = tokens(&mut Reader::new(text));
        let Ok(from_tree) = tokens(&mut TreeReader::new(&tree));
        assert_eq!(from_text, Ok(from_tree));
    }

    /// Skip the first item of `[{"x":[1,{"y":2}]},3]`, read the second.
    fn skip_then_read<'a, P: Pull<'a>>(p: &mut P) -> Result<Vec<Token<'a>>, P::Error> {
        let mut seen = vec![p.value()?];
        p.item()?;
        let first = p.value()?;
        seen.push(first.clone());
        p.skip(first)?;
        p.item()?;
        seen.push(p.value()?);
        seen.push(if p.item()? { Token::Null } else { Token::Arr });
        Ok(seen)
    }

    #[test]
    fn skipping_a_container_leaves_the_reader_after_it() {
        let text = r#"[{"x":[1,{"y":2}]},3]"#;
        let want = vec![Token::Arr, Token::Obj, Token::UInt(3), Token::Arr];
        assert_eq!(skip_then_read(&mut Reader::new(text)), Ok(want.clone()));
        let Ok(tree) = parse(text) else { panic!("well-formed") };
        let Ok(from_tree) = skip_then_read(&mut TreeReader::new(&tree));
        assert_eq!(from_tree, want);
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#"{"plain":"t3e","esc\u0061ped":"a\nb"}"#);
        assert_eq!(r.value(), Ok(Token::Obj));
        assert!(matches!(r.key(), Ok(Some(Cow::Borrowed("plain")))));
        assert!(matches!(r.value(), Ok(Token::Str(Cow::Borrowed("t3e")))));
        assert!(matches!(r.key(), Ok(Some(Cow::Owned(k))) if k == "escaped"));
        assert!(matches!(r.value(), Ok(Token::Str(Cow::Owned(s))) if s == "a\nb"));
        assert_eq!(r.key(), Ok(None));
        assert_eq!(r.end(), Ok(()));
    }
}
