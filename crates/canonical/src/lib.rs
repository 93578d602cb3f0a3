//! # tabular-canonical
//!
//! The **canonical representation** machinery of the PODS 1996 paper (§4.1):
//!
//! * [`encode`](mod@encode) / [`decode`](mod@decode) — **Lemmas 4.2 / 4.3**: every tabular database
//!   encodes into a relational database over the fixed scheme
//!   `Rep = {Data(Tbl,Row,Col,Val), Map(Id,Entry)}` and back, exactly up to
//!   row/column permutations and the choice of occurrence identifiers;
//! * [`ta_programs`] — a generator emitting an actual *tabular algebra
//!   program* `P_Rep` performing the encoding for relational-shaped schemes
//!   (the executable core of Lemma 4.2);
//! * [`normal_form`] — **Theorem 4.4**: transformations in the normal form
//!   `P_Rep ∘ P ∘ P_Rep⁻¹` with `P` an `FO + while + new` program over
//!   `Rep`, runnable both natively and through the Theorem 4.1 compiler.
//!
//! ```
//! use tabular_canonical::{encode::encode, decode::decode};
//! use tabular_core::fixtures;
//!
//! let db = fixtures::sales_info2_full();
//! let back = decode(&encode(&db)).unwrap();
//! assert!(back.equiv(&db));
//! ```

#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod error;
pub mod normal_form;
pub mod ta_programs;

pub use decode::decode;
pub use encode::{check_fds, encode};
pub use error::CanonError;
pub use normal_form::{matrix_to_relation, relation_to_matrix, Transformation};
pub use ta_programs::{encode_program, EncodeScheme};
