//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against the
//! workspace's `serde` stub (whose data model is an explicit `Value` tree).
//! Because crates.io is unreachable, the input is parsed directly from the
//! `proc_macro` token stream — no `syn`, no `quote`. Supported shapes are the
//! ones this workspace derives on:
//!
//! * structs with named fields (any visibility),
//! * enums with unit variants and struct variants.
//!
//! Fields follow real serde's rules, with real serde's attribute spellings:
//!
//! * a field declared as `Option<…>` reads an absent key as `None` (any
//!   other absent field is a `missing field` error);
//! * `#[serde(skip)]` leaves the field off the wire and reads it back as
//!   `Default::default()`;
//! * `#[serde(skip_serializing_if = "path")]` writes the key only when
//!   `!path(&field)` — `"Option::is_none"` keeps `None` off the wire.
//!
//! Generics, tuple structs, tuple variants and any other `#[serde(...)]`
//! attribute are rejected with a clear compile-time panic rather than
//! silently mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The `#[serde(...)]` attributes of one field.
#[derive(Default)]
struct FieldAttrs {
    /// `#[serde(skip)]`.
    skip: bool,
    /// `#[serde(skip_serializing_if = "path")]`: the predicate's path.
    skip_serializing_if: Option<String>,
}

/// One parsed field.
struct Field {
    name: String,
    attrs: FieldAttrs,
    /// Declared as `Option<…>`: an absent key deserializes as `None`.
    optional: bool,
}

/// One parsed enum variant: unit (`fields == None`) or struct-like.
struct Variant {
    name: String,
    fields: Option<Vec<Field>>,
}

/// The item a derive was placed on.
enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Fold one attribute body (the tokens inside `#[...]`) into `attrs` when it
/// is `serde(...)`; other attributes (docs, lints) are ignored.
fn parse_serde_attr(body: &[TokenTree], attrs: &mut FieldAttrs) {
    let [TokenTree::Ident(tag), TokenTree::Group(args)] = body else {
        return;
    };
    if tag.to_string() != "serde" {
        return;
    }
    for arg in split_top_level(args.stream().into_iter().collect()) {
        match arg.as_slice() {
            [TokenTree::Ident(key)] if key.to_string() == "skip" => attrs.skip = true,
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(path)]
                if key.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
            {
                attrs.skip_serializing_if = Some(path.to_string().trim_matches('"').to_string());
            }
            other => {
                let text: String = other.iter().map(|t| t.to_string()).collect();
                panic!("serde_derive stub: unsupported attribute `serde({text})`")
            }
        }
    }
}

/// Skip leading attributes, collecting any `#[serde(...)]` ones.
fn skip_attributes(tokens: &[TokenTree], mut pos: usize) -> (usize, FieldAttrs) {
    let mut attrs = FieldAttrs::default();
    while pos + 1 < tokens.len() {
        match (&tokens[pos], &tokens[pos + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                parse_serde_attr(&body, &mut attrs);
                pos += 2;
            }
            _ => break,
        }
    }
    (pos, attrs)
}

/// Whether a field type is `Option<…>`, by the last path segment before its
/// generic arguments (so `std::option::Option<T>` counts too), as real
/// serde checks.
fn is_option(ty: &[TokenTree]) -> bool {
    let open = ty
        .iter()
        .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '<'));
    open.is_some_and(
        |open| matches!(&ty[..open], [.., TokenTree::Ident(i)] if i.to_string() == "Option"),
    )
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_visibility(tokens: &[TokenTree], mut pos: usize) -> usize {
    if matches!(&tokens[pos..], [TokenTree::Ident(i), ..] if i.to_string() == "pub") {
        pos += 1;
        if matches!(&tokens[pos..], [TokenTree::Group(g), ..] if g.delimiter() == Delimiter::Parenthesis)
        {
            pos += 1;
        }
    }
    pos
}

/// Split the tokens of a brace-group body at top-level commas. Parenthesised
/// and bracketed sub-trees arrive pre-grouped, so only `<...>` nesting needs
/// explicit depth tracking.
fn split_top_level(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0usize;
    for token in tokens {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(token);
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Parse the named fields of a struct or struct variant body.
fn parse_named_fields(body: TokenStream, context: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    for chunk in split_top_level(body.into_iter().collect()) {
        let (pos, attrs) = skip_attributes(&chunk, 0);
        let pos = skip_visibility(&chunk, pos);
        match &chunk[pos..] {
            [TokenTree::Ident(name), TokenTree::Punct(colon), ty @ ..]
                if colon.as_char() == ':' =>
            {
                fields.push(Field {
                    name: name.to_string(),
                    attrs,
                    optional: is_option(ty),
                });
            }
            _ => panic!("serde_derive stub: {context} must use named `ident: Type` fields"),
        }
    }
    fields
}

/// Parse the variants of an enum body.
fn parse_variants(body: TokenStream, enum_name: &str) -> Vec<Variant> {
    let mut variants = Vec::new();
    for chunk in split_top_level(body.into_iter().collect()) {
        let (pos, _) = skip_attributes(&chunk, 0);
        match &chunk[pos..] {
            [TokenTree::Ident(name)] => {
                variants.push(Variant {
                    name: name.to_string(),
                    fields: None,
                });
            }
            [TokenTree::Ident(name), TokenTree::Group(g)] if g.delimiter() == Delimiter::Brace => {
                let context = format!("{enum_name}::{name}");
                variants.push(Variant {
                    name: name.to_string(),
                    fields: Some(parse_named_fields(g.stream(), &context)),
                });
            }
            _ => panic!(
                "serde_derive stub: enum {enum_name} may only contain unit or struct variants"
            ),
        }
    }
    variants
}

/// Parse the whole derive input into an [`Item`].
fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (pos, _) = skip_attributes(&tokens, 0);
    let pos = skip_visibility(&tokens, pos);
    match &tokens[pos..] {
        [TokenTree::Ident(kw), TokenTree::Ident(name), TokenTree::Group(body), ..]
            if body.delimiter() == Delimiter::Brace =>
        {
            let name = name.to_string();
            match kw.to_string().as_str() {
                "struct" => {
                    Item::Struct { fields: parse_named_fields(body.stream(), &name), name }
                }
                "enum" => Item::Enum { variants: parse_variants(body.stream(), &name), name },
                other => panic!("serde_derive stub: cannot derive on `{other}` items"),
            }
        }
        _ => panic!(
            "serde_derive stub: expected a non-generic `struct Name {{ ... }}` or `enum Name {{ ... }}`"
        ),
    }
}

/// The statements pushing each serialized field onto the `Vec` named
/// `{target}`; `access(name)` is the expression borrowing the field.
fn field_pushes(fields: &[Field], target: &str, access: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let fname = &f.name;
        let value = access(fname);
        let push = format!(
            "{target}.push((\"{fname}\".to_string(), ::serde::Serialize::to_value({value})));\n"
        );
        match &f.attrs.skip_serializing_if {
            Some(path) => out.push_str(&format!("if !{path}({value}) {{\n{push}}}\n")),
            None => out.push_str(&push),
        }
    }
    out
}

fn serialize_impl(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let pushes = field_pushes(fields, "fields", |fname| format!("&self.{fname}"));
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                         {pushes}\
                         ::serde::Value::Object(fields)\n\
                     }}\n\
                 }}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    None => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::String(\"{vname}\".to_string()),\n"
                    )),
                    Some(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let pattern = bindings.join(", ");
                        // Pattern bindings are already references.
                        let pushes = field_pushes(fields, "inner", str::to_string);
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {pattern} }} => {{\n\
                                 let mut inner: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                                 {pushes}\
                                 ::serde::Value::Object(::std::vec![(\"{vname}\".to_string(), ::serde::Value::Object(inner))])\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}\n"
            )
        }
    }
}

/// The `field: ...` initializers for building a struct (or struct variant)
/// back out of a `Value` named `{source}`.
fn field_initializers(fields: &[Field], context: &str, source: &str) -> String {
    let mut out = String::new();
    for f in fields {
        let fname = &f.name;
        if f.attrs.skip {
            out.push_str(&format!("{fname}: Default::default(),\n"));
        } else if f.optional {
            out.push_str(&format!(
                "{fname}: match {source}.get(\"{fname}\") {{\n\
                     ::std::option::Option::Some(field) => ::serde::Deserialize::from_value(field)?,\n\
                     ::std::option::Option::None => ::std::option::Option::None,\n\
                 }},\n"
            ));
        } else {
            out.push_str(&format!(
                "{fname}: ::serde::Deserialize::from_value({source}.get(\"{fname}\").ok_or_else(|| ::serde::Error::custom(\"missing field `{fname}` in {context}\"))?)?,\n"
            ));
        }
    }
    out
}

fn deserialize_impl(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let inits = field_initializers(fields, name, "value");
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         if value.as_object().is_none() {{\n\
                             return Err(::serde::Error::mismatch(\"object\", value));\n\
                         }}\n\
                         Ok({name} {{\n{inits}}})\n\
                     }}\n\
                 }}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut struct_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    None => unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n")),
                    Some(fields) => {
                        let context = format!("{name}::{vname}");
                        let inits = field_initializers(fields, &context, "inner");
                        struct_arms.push_str(&format!(
                            "\"{vname}\" if inner.as_object().is_none() => Err(::serde::Error::mismatch(\"object\", inner)),\n\
                             \"{vname}\" => Ok({name}::{vname} {{\n{inits}}}),\n"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match value {{\n\
                             ::serde::Value::String(tag) => match tag.as_str() {{\n\
                                 {unit_arms}\
                                 other => Err(::serde::Error::custom(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                                 let (tag, inner) = &entries[0];\n\
                                 match tag.as_str() {{\n\
                                     {struct_arms}\
                                     other => Err(::serde::Error::custom(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             other => Err(::serde::Error::mismatch(\"enum tag\", other)),\n\
                         }}\n\
                     }}\n\
                 }}\n"
            )
        }
    }
}

/// `#[derive(Serialize)]` against the workspace's `serde` stub.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    serialize_impl(&item)
        .parse()
        .expect("serde_derive stub: generated Serialize impl parses")
}

/// `#[derive(Deserialize)]` against the workspace's `serde` stub.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    deserialize_impl(&item)
        .parse()
        .expect("serde_derive stub: generated Deserialize impl parses")
}
