//! The derive macros' field rules, checked through JSON text: `Option`
//! fields may be absent, `skip_serializing_if` omits keys, `skip` never
//! reaches the wire.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string};

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Body {
    required: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    maybe: Option<u32>,
    kept_null: Option<String>,
    spelled_out: std::option::Option<bool>,
    #[serde(skip)]
    cache: Vec<u32>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Event {
    Tick,
    Move {
        to: u32,
        #[serde(skip_serializing_if = "Option::is_none")]
        speed: Option<f64>,
    },
}

fn error<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    from_str::<T>(text).unwrap_err().message
}

#[test]
fn absent_and_null_option_keys_read_as_none_and_present_ones_as_some() {
    let bare = Body {
        required: 1,
        ..Body::default()
    };
    assert_eq!(from_str::<Body>(r#"{"required": 1}"#).unwrap(), bare);
    let nulls = r#"{"required": 1, "maybe": null, "kept_null": null, "spelled_out": null}"#;
    assert_eq!(from_str::<Body>(nulls).unwrap(), bare);
    let full = r#"{"required": 1, "maybe": 7, "kept_null": "x", "spelled_out": true}"#;
    let body: Body = from_str(full).unwrap();
    assert_eq!(
        (body.maybe, body.kept_null.as_deref(), body.spelled_out),
        (Some(7), Some("x"), Some(true))
    );
    // A present key of the wrong type is still an error.
    assert!(error::<Body>(r#"{"required": 1, "maybe": "7"}"#).contains("expected number"));
}

#[test]
fn an_absent_required_key_is_still_a_missing_field_error() {
    assert!(error::<Body>(r#"{"maybe": 1}"#).contains("missing field `required`"));
    assert!(error::<Event>(r#"{"Move": {"speed": 1.5}}"#).contains("missing field `to`"));
    // Structs and struct variants must be objects, even when every key
    // they would read is optional.
    for text in ["5", "[1]", "null", "\"x\""] {
        assert!(error::<Body>(text).contains("expected object"), "{text}");
    }
    assert!(error::<Event>(r#"{"Move": 5}"#).contains("expected object"));
}

#[test]
fn skip_serializing_if_omits_none_and_keeps_some() {
    let mut body = Body {
        required: 1,
        spelled_out: Some(false),
        ..Body::default()
    };
    // Without the attribute a `None` is still written, as `null`.
    let text = r#"{"required":1,"kept_null":null,"spelled_out":false}"#;
    assert_eq!(to_string(&body).unwrap(), text);
    body.maybe = Some(3);
    let text = r#"{"required":1,"maybe":3,"kept_null":null,"spelled_out":false}"#;
    assert_eq!(to_string(&body).unwrap(), text);

    for (event, text) in [
        (Event::Move { to: 4, speed: None }, r#"{"Move":{"to":4}}"#),
        (
            Event::Move {
                to: 4,
                speed: Some(0.5),
            },
            r#"{"Move":{"to":4,"speed":0.5}}"#,
        ),
        (Event::Tick, r#""Tick""#),
    ] {
        assert_eq!(to_string(&event).unwrap(), text);
        assert_eq!(from_str::<Event>(text).unwrap(), event);
    }
}

#[test]
fn skipped_fields_stay_off_the_wire_and_read_back_as_default() {
    let body = Body {
        required: 2,
        cache: vec![1, 2, 3],
        ..Body::default()
    };
    let text = to_string(&body).unwrap();
    assert!(!text.contains("cache"), "{text}");
    assert!(from_str::<Body>(&text).unwrap().cache.is_empty());
    // A `cache` key on the wire is ignored, not read.
    let back: Body = from_str(r#"{"required": 2, "cache": [9]}"#).unwrap();
    assert!(back.cache.is_empty());
}
