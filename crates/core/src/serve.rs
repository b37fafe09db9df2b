//! The two socket-free leaf modules left from the retired `repro serve`
//! leg: the request JSON reader ([`json`]) and the seeded network-fault
//! plan ([`chaos`]).
//!
//! The server, its load generator and its chaos soak are gone (see
//! CHANGELOG "Removed"); nothing in the workspace calls these modules
//! any more. They are kept, with their unit tests, only until the next
//! change deletes them (ROADMAP).

pub mod chaos;
pub mod json;
