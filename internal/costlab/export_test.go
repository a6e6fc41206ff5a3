package costlab

// MinPerWorker exposes minPerWorker to the external tests, which size
// their batches to start every worker they ask for.
const MinPerWorker = minPerWorker
