"""Value predictors as column kernels: last-value, stride, FCM, DFCM and
the hybrid tournament over stride and FCM."""
