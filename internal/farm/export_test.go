package farm

// keyVersion is the key-derivation version the golden key file records;
// the encoder that folds it into every key lives in internal/job.
const keyVersion = KeyVersion
