"""Walk counts, spectra, and the shortlex moment order on starlike trees."""
