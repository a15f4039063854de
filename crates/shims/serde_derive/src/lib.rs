//! The `Serialize` derive for the workspace-local `serde` shim.
//!
//! Hand-rolled token parsing (no `syn`/`quote` available offline). Supports
//! exactly what the workspace derives on: non-generic structs with named
//! fields, and non-generic enums with unit variants. Anything else panics
//! at compile time with a clear message. There is no `Deserialize` derive:
//! JSON is read back only as a `serde::Value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Struct with named fields.
    Struct { name: String, fields: Vec<String> },
    /// Enum with unit variants only.
    Enum { name: String, variants: Vec<String> },
}

/// Skips leading attributes (`#[...]`, including expanded doc comments) in a
/// token iterator.
fn skip_attrs(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    other => panic!("expected attribute body after '#', got {other:?}"),
                }
            }
            _ => return,
        }
    }
}

/// Skips `pub` / `pub(crate)` style visibility markers.
fn skip_vis(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(
            tokens.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            tokens.next();
        }
    }
}

/// Splits a brace-group body on top-level commas, tracking angle-bracket
/// depth so `Option<u32>`-style generic arguments don't split early.
fn split_top_level_commas(body: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for tt in body {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                continue;
            }
            _ => {}
        }
        cur.push(tt);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_input(input: TokenStream) -> Shape {
    let mut tokens = input.into_iter().peekable();
    skip_attrs(&mut tokens);
    skip_vis(&mut tokens);

    let kind = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    if kind != "struct" && kind != "enum" {
        panic!("serde shim derive supports only structs and enums, got `{kind}`");
    }

    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected type name, got {other:?}"),
    };

    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive does not support generic type `{name}`")
        }
        other => panic!(
            "expected braced body for `{name}` (tuple/unit forms unsupported), got {other:?}"
        ),
    };

    let chunks = split_top_level_commas(body);
    if kind == "struct" {
        let mut fields = Vec::new();
        for chunk in chunks {
            let mut it = chunk.into_iter().peekable();
            skip_attrs(&mut it);
            skip_vis(&mut it);
            match it.next() {
                Some(TokenTree::Ident(i)) => fields.push(i.to_string()),
                other => panic!("expected field name in `{name}`, got {other:?}"),
            }
            match it.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                other => panic!("expected ':' after field name in `{name}`, got {other:?}"),
            }
        }
        Shape::Struct { name, fields }
    } else {
        let mut variants = Vec::new();
        for chunk in chunks {
            let mut it = chunk.into_iter().peekable();
            skip_attrs(&mut it);
            let v = match it.next() {
                Some(TokenTree::Ident(i)) => i.to_string(),
                other => panic!("expected variant name in `{name}`, got {other:?}"),
            };
            if it.next().is_some() {
                panic!(
                    "serde shim derive supports only unit enum variants; `{name}::{v}` has data"
                );
            }
            variants.push(v);
        }
        Shape::Enum { name, variants }
    }
}

/// Derives the shim's `serde::Serialize` (serialization into `serde::Value`).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse_input(input) {
        Shape::Struct { name, fields } => {
            let pairs: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "(\"{f}\".to_string(), ::serde::Serialize::serialize_value(&self.{f})),"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Object(vec![{pairs}])\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\","))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize_value(&self) -> ::serde::Value {{\n\
                         ::serde::Value::Str(match self {{ {arms} }}.to_string())\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde shim derive emitted invalid code")
}
